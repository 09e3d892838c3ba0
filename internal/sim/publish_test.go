package sim

import "testing"

// orderProbe records the interleaving of observer and publish-hook calls.
type orderProbe struct {
	events []string
}

func TestPublishHookRunsAfterObservers(t *testing.T) {
	e := New(1, noopLayer{name: "noop"})
	e.AddNodes(4)

	var probe orderProbe
	e.Observe(func(e *Engine, round int) {
		probe.events = append(probe.events, "observe")
	})
	var rounds []int
	e.SetPublishHook(func(e *Engine, round int) {
		probe.events = append(probe.events, "publish")
		rounds = append(rounds, round)
		if e.Round() != round {
			t.Fatalf("hook saw Round()=%d, want %d (pre-increment)", e.Round(), round)
		}
	})

	e.RunRounds(3)
	want := []string{"observe", "publish", "observe", "publish", "observe", "publish"}
	if len(probe.events) != len(want) {
		t.Fatalf("events = %v, want %v", probe.events, want)
	}
	for i := range want {
		if probe.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", probe.events, want)
		}
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("publish rounds = %v, want 0..2", rounds)
		}
	}
}

func TestPublishHookClearedByNil(t *testing.T) {
	e := New(1, noopLayer{name: "noop"})
	e.AddNodes(2)
	fired := 0
	e.SetPublishHook(func(e *Engine, round int) { fired++ })
	e.RunRounds(2)
	if fired != 2 {
		t.Fatalf("hook fired %d times, want 2", fired)
	}
	e.SetPublishHook(nil)
	e.RunRounds(1)
	if fired != 2 {
		t.Fatalf("nil did not clear the hook: fired %d times, want 2", fired)
	}
}
