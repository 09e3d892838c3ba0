package scenario

import (
	"testing"

	"polystyrene/internal/serve"
)

func TestScenarioServePublisherThroughPhases(t *testing.T) {
	sc := MustNew(Config{Seed: 5, W: 16, H: 8, Polystyrene: true, K: 4, SkipMetrics: true})
	defer sc.Close()
	pub := sc.ServePublisher()
	defer pub.Close()
	ep := pub.Current()
	if ep == nil || ep.Seq != 1 || ep.NumLive() != 16*8 {
		t.Fatalf("eager epoch = %+v", ep)
	}
	if ep.NumPoints() != 16*8 {
		t.Fatalf("epoch points = %d, want %d", ep.NumPoints(), 16*8)
	}

	ph := Phases{FailAt: 4, ReinjectAt: 8, End: 12}
	var starts []int
	DrivePhases(sc, ph, 12, func(round int) bool {
		starts = append(starts, round)
		return true
	})
	if len(starts) != 12 || starts[0] != 0 || starts[11] != 11 {
		t.Fatalf("atRound calls = %v, want rounds 0..11", starts)
	}
	ep = pub.Current()
	if ep.Round != 11 || ep.Seq != 13 {
		t.Fatalf("final epoch Round/Seq = %d/%d, want 11/13", ep.Round, ep.Seq)
	}
	// Reinjection topped the population back up to the full grid.
	if ep.NumLive() != 16*8 {
		t.Fatalf("final epoch live = %d, want %d", ep.NumLive(), 16*8)
	}
	// Mid-catastrophe epochs existed: the serving surface answered with
	// half the grid dead (epochs are immutable, so check the current one
	// only for structure and trust the publisher sequence for the rest).
	if _, _, _, ok := ep.Lookup([]float64{3.5, 3.5}); !ok {
		t.Fatal("lookup on recovered scenario epoch failed")
	}

	// atRound returning false stops at a round boundary, before events.
	sc2 := MustNew(Config{Seed: 5, W: 8, H: 4, Polystyrene: true, K: 4, SkipMetrics: true})
	defer sc2.Close()
	DrivePhases(sc2, Phases{FailAt: 2, ReinjectAt: 4, End: 10}, 10, func(round int) bool {
		return round < 2
	})
	if sc2.Engine.Round() != 2 {
		t.Fatalf("early stop left round %d, want 2", sc2.Engine.Round())
	}
	if sc2.Engine.NumLive() != 8*4 {
		t.Fatal("stop at round 2 should precede the FailAt event")
	}
}

func TestScenarioBaselineServeSource(t *testing.T) {
	sc := MustNew(Config{Seed: 3, W: 8, H: 4, Polystyrene: false, SkipMetrics: true})
	defer sc.Close()
	ep := serve.Capture(sc.ServeSource(), 4, 1)
	if ep.NumPoints() != 0 || ep.HolderEntries() != 0 {
		t.Fatalf("baseline epoch has data universe: %d points, %d holders",
			ep.NumPoints(), ep.HolderEntries())
	}
	if g, ok := ep.NumGuests(0); !ok || g != 0 {
		t.Fatalf("baseline guests = %d,%v", g, ok)
	}
	if _, _, _, ok := ep.Lookup([]float64{1, 1}); !ok {
		t.Fatal("baseline epoch lookup failed")
	}
}
