package trace

import (
	"reflect"
	"testing"

	"polystyrene/internal/space"
)

func TestFlashCrowdStructure(t *testing.T) {
	s, err := FlashCrowd(10, 3, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Universe() != 14 || s.Horizon() != 9 {
		t.Fatalf("universe %d horizon %d, want 14, 9", s.Universe(), s.Horizon())
	}
	joins, leaves := 0, 0
	for _, ev := range s.Events {
		switch ev.Op {
		case OpJoin:
			if ev.Round != 3 {
				t.Errorf("join at round %d, want 3", ev.Round)
			}
			joins++
		case OpLeave:
			if ev.Round != 8 {
				t.Errorf("leave at round %d, want 8", ev.Round)
			}
			if ev.Node < 10 {
				t.Errorf("flash crowd must not crash initial node %d", ev.Node)
			}
			leaves++
		}
	}
	if joins != 4 || leaves != 4 {
		t.Errorf("joins %d leaves %d, want 4, 4", joins, leaves)
	}
	// The bounce case: crowd joins and leaves the same round.
	if _, err := FlashCrowd(10, 5, 3, 5); err != nil {
		t.Errorf("same-round flash crowd: %v", err)
	}
	if _, err := FlashCrowd(10, 5, 3, 4); err == nil {
		t.Error("leave before join must be rejected")
	}
	if _, err := FlashCrowd(-1, 0, 1, 1); err == nil {
		t.Error("negative initial must be rejected")
	}
}

func TestUniformChurnProperties(t *testing.T) {
	const initial, rounds = 300, 25
	const rate = 0.05
	s, err := UniformChurn(initial, rounds, rate, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same script; different seed, different script.
	again, err := UniformChurn(initial, rounds, rate, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Error("UniformChurn is not deterministic for a fixed seed")
	}
	other, err := UniformChurn(initial, rounds, rate, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s.Events, other.Events) {
		t.Error("different seeds produced identical churn scripts")
	}
	// Every round is population-neutral: joins == leaves per round, and
	// the steady population keeps per-round kills at int(rate*initial).
	perRound := make(map[int][2]int)
	for _, ev := range s.Events {
		c := perRound[ev.Round]
		if ev.Op == OpJoin {
			c[0]++
		} else {
			c[1]++
		}
		perRound[ev.Round] = c
	}
	want := int(rate * float64(initial))
	for r, c := range perRound {
		if c[0] != c[1] {
			t.Errorf("round %d: %d joins vs %d leaves", r, c[0], c[1])
		}
		if c[1] != want {
			t.Errorf("round %d: %d kills, want %d", r, c[1], want)
		}
	}
	if _, err := UniformChurn(10, 5, 1.5, 1); err == nil {
		t.Error("rate >= 1 must be rejected")
	}
}

func TestWeibullLifetimesProperties(t *testing.T) {
	const initial, horizon = 200, 40
	s, err := WeibullLifetimes(initial, horizon, 0.7, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	again, err := WeibullLifetimes(initial, horizon, 0.7, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Error("WeibullLifetimes is not deterministic for a fixed seed")
	}
	// Replacement keeps every round population-neutral, and a short scale
	// must actually kill something over 40 rounds.
	perRound := make(map[int][2]int)
	for _, ev := range s.Events {
		c := perRound[ev.Round]
		if ev.Op == OpJoin {
			c[0]++
		} else {
			c[1]++
		}
		perRound[ev.Round] = c
	}
	if len(perRound) == 0 {
		t.Fatal("no deaths scheduled despite scale << horizon")
	}
	for r, c := range perRound {
		if c[0] != c[1] {
			t.Errorf("round %d: %d joins vs %d leaves", r, c[0], c[1])
		}
	}
	if _, err := WeibullLifetimes(10, 5, 0, 1, 1); err == nil {
		t.Error("non-positive shape must be rejected")
	}
	if _, err := WeibullLifetimes(10, 5, 1, -2, 1); err == nil {
		t.Error("non-positive scale must be rejected")
	}
}

func leaveSet(s *Schedule, round int) map[int]bool {
	out := make(map[int]bool)
	for _, ev := range s.Events {
		if ev.Op == OpLeave && (round < 0 || ev.Round == round) {
			out[ev.Node] = true
		}
	}
	return out
}

func TestDatacenterOutageSchedule(t *testing.T) {
	const w, h = 16, 8
	n := w * h
	pos := space.TorusGrid(w, h, 1)
	s, err := DatacenterOutage(pos, w, 4, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Every node of the first quarter slab, x < 4, leaves at round 10,
	// nobody else.
	killed := leaveSet(s, 10)
	for id, p := range pos {
		if want := p[0] < 4; killed[id] != want {
			t.Errorf("node %d at %v: killed=%v want %v", id, p, killed[id], want)
		}
	}
	if len(killed) != n/4 {
		t.Errorf("outage crashed %d of %d nodes, want a quarter", len(killed), n)
	}
	// Matched joins at round 20, sequential from n.
	joins := 0
	for _, ev := range s.Events {
		if ev.Op == OpJoin {
			if ev.Round != 20 || ev.Node != n+joins {
				t.Errorf("join %+v, want node %d at round 20", ev, n+joins)
			}
			joins++
		}
	}
	if joins != len(killed) {
		t.Errorf("%d rejoins for %d kills", joins, len(killed))
	}
	// No-rejoin variant.
	s2, err := DatacenterOutage(pos, w, 4, 10, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s2.Events {
		if ev.Op == OpJoin {
			t.Fatal("rejoinRound < 0 must not script joins")
		}
	}
	if _, err := DatacenterOutage(pos, w, 4, 10, 5); err == nil {
		t.Error("rejoin before fail must be rejected")
	}
	if _, err := DatacenterOutage(pos, w, 0, 10, 20); err == nil {
		t.Error("zero datacenters must be rejected")
	}
}

func TestRollingPartitionSchedule(t *testing.T) {
	const w, h = 20, 10
	pos := space.TorusGrid(w, h, 1)
	const bands, start, stride = 4, 6, 3
	s, err := RollingPartition(pos, float64(w), bands, start, stride, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Every node leaves exactly once, at the round of its position band —
	// the same banding regionFailureEvents applies directly.
	all := leaveSet(s, -1)
	if len(all) != w*h {
		t.Fatalf("partition sweep crashed %d of %d nodes", len(all), w*h)
	}
	for b := 0; b < bands; b++ {
		lo := float64(w) * float64(b) / bands
		hi := float64(w) * float64(b+1) / bands
		if b == bands-1 {
			hi = float64(w) + 1
		}
		direct := make(map[int]bool)
		for _, ev := range regionFailureEvents(nil, pos, lo, hi, start+b*stride) {
			direct[ev.Node] = true
		}
		got := leaveSet(s, start+b*stride)
		if len(got) != len(direct) {
			t.Fatalf("band %d: schedule crashes %d nodes, direct region application %d", b, len(got), len(direct))
		}
		for id := range direct {
			if !got[id] {
				t.Errorf("band %d: node %d missing from schedule", b, id)
			}
		}
	}
	// With rejoin, each band's loss is matched `rejoin` rounds later.
	const rejoin = 2
	s2, err := RollingPartition(pos, float64(w), bands, start, stride, rejoin)
	if err != nil {
		t.Fatal(err)
	}
	joinsAt := make(map[int]int)
	for _, ev := range s2.Events {
		if ev.Op == OpJoin {
			joinsAt[ev.Round]++
		}
	}
	for b := 0; b < bands; b++ {
		killRound := start + b*stride
		kills := len(leaveSet(s2, killRound))
		if joinsAt[killRound+rejoin] != kills {
			t.Errorf("band %d: %d kills at %d but %d joins at %d", b, kills, killRound, joinsAt[killRound+rejoin], killRound+rejoin)
		}
	}
	if _, err := RollingPartition(pos, float64(w), 0, 1, 1, -1); err == nil {
		t.Error("zero bands must be rejected")
	}
	if _, err := RollingPartition(pos, -3, 2, 1, 1, -1); err == nil {
		t.Error("negative width must be rejected")
	}
}
