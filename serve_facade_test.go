package polystyrene_test

import (
	"testing"

	"polystyrene"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

func toNodeID(id int) sim.NodeID { return sim.NodeID(id) }

func newServedSystem(t *testing.T) *polystyrene.System {
	t.Helper()
	sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
		Seed:              9,
		Space:             polystyrene.Torus(16, 8),
		Shape:             polystyrene.TorusShape(16, 8, 1),
		ReplicationFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestServePublisherTracksRounds(t *testing.T) {
	sys := newServedSystem(t)
	pub := sys.ServePublisher()
	ep := pub.Current()
	if ep == nil || ep.Seq != 1 || ep.Round != 0 {
		t.Fatalf("eager epoch = %+v, want Seq 1 Round 0", ep)
	}
	if ep.NumLive() != sys.NumLive() {
		t.Fatalf("eager epoch live = %d, want %d", ep.NumLive(), sys.NumLive())
	}
	sys.Run(5)
	ep = pub.Current()
	// One eager publish plus one per round; the round stamped is the
	// just-completed round index (pre-increment).
	if ep.Seq != 6 || ep.Round != 4 {
		t.Fatalf("after 5 rounds epoch = Seq %d Round %d, want 6/4", ep.Seq, ep.Round)
	}

	sys.StopServing()
	sys.Run(2)
	if got := pub.Current(); got.Seq != 6 {
		t.Fatalf("epoch advanced after StopServing: Seq %d", got.Seq)
	}
}

func TestServeSnapshotMatchesFacade(t *testing.T) {
	sys := newServedSystem(t)
	sys.Run(10)
	ep := sys.ServeSnapshot()
	if ep.Seq != 0 {
		t.Fatalf("ad-hoc snapshot Seq = %d, want 0", ep.Seq)
	}
	if ep.NumLive() != sys.NumLive() {
		t.Fatalf("snapshot live = %d, facade = %d", ep.NumLive(), sys.NumLive())
	}
	for _, id := range sys.Live()[:8] {
		pos, ok := ep.Position(toNodeID(id))
		if !ok {
			t.Fatalf("node %d live in facade, missing from epoch", id)
		}
		want := sys.NodePosition(id)
		for d := range want {
			if pos[d] != want[d] {
				t.Fatalf("node %d position %v != facade %v", id, pos, want)
			}
		}
		guests, _ := ep.NumGuests(toNodeID(id))
		if got := len(sys.NodeGuests(id)); guests != got {
			t.Fatalf("node %d guests %d != facade %d", id, guests, got)
		}
	}
	// Epoch lookups land on the same nodes as the facade's oracle for
	// on-shape queries of a converged system.
	for _, q := range [][]float64{{0, 0}, {7, 3}, {15.2, 7.8}, {8, 4}} {
		id, _, _, ok := ep.Lookup(q)
		if !ok {
			t.Fatalf("epoch lookup %v failed", q)
		}
		if exact := sys.LookupExact(q); int(id) != exact {
			// Greedy may land on an equidistant twin; accept equal distance.
			spc := space.NewTorus(16, 8)
			dGreedy := spc.Distance(space.Point(q), space.Point(sys.NodePosition(int(id))))
			dExact := spc.Distance(space.Point(q), space.Point(sys.NodePosition(exact)))
			if dGreedy > dExact+1e-9 {
				t.Fatalf("epoch lookup %v = node %d (d=%v), exact %d (d=%v)",
					q, id, dGreedy, exact, dExact)
			}
		}
	}
}

func TestLookupSentinelOnEmptyAndMalformed(t *testing.T) {
	sys := newServedSystem(t)
	sys.Run(5)
	// Malformed dimension: sentinel, not a panic.
	if got := sys.Lookup([]float64{1}); got != -1 {
		t.Fatalf("Lookup(short query) = %d, want -1", got)
	}
	if got := sys.LookupExact([]float64{1, 2, 3}); got != -1 {
		t.Fatalf("LookupExact(long query) = %d, want -1", got)
	}
	if got := sys.Lookup(nil); got != -1 {
		t.Fatalf("Lookup(nil) = %d, want -1", got)
	}
	// Total-region crash: the whole live set dies.
	killed := sys.CrashRegion(func([]float64) bool { return true })
	if killed == 0 || sys.NumLive() != 0 {
		t.Fatalf("total crash killed %d, live %d", killed, sys.NumLive())
	}
	if got := sys.Lookup([]float64{3, 3}); got != -1 {
		t.Fatalf("Lookup on empty system = %d, want -1", got)
	}
	if got := sys.LookupExact([]float64{3, 3}); got != -1 {
		t.Fatalf("LookupExact on empty system = %d, want -1", got)
	}
	// The served path mirrors the sentinel: ok=false, never a panic.
	ep := sys.ServeSnapshot()
	if ep.NumLive() != 0 {
		t.Fatalf("post-crash epoch live = %d", ep.NumLive())
	}
	if _, _, _, ok := ep.Lookup([]float64{3, 3}); ok {
		t.Fatal("epoch lookup on empty epoch reported ok")
	}
}
