package polystyrene_test

import (
	"math"
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

// TestLookupMatchesServedEpoch pins the facade's Lookup and a served
// epoch's Lookup to each other: both take one greedy walk, so over a grid
// of queries (half-step points included, where equidistant nodes tie)
// they must return the same node at a bit-identical distance. It covers
// Polystyrene and the baseline, and the rounds right after a right-half
// crash, while overlay views still name dead peers that the facade's
// walk must skip and the epoch's captured rows have already dropped.
func TestLookupMatchesServedEpoch(t *testing.T) {
	const w, h = 40, 20
	spc := space.NewTorus(w, h)
	var queries [][]float64
	for x := 0.0; x < w; x += 1.5 {
		for y := 0.0; y < h; y += 1.5 {
			queries = append(queries, []float64{x, y})
		}
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, baseline := range []bool{false, true} {
			sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
				Seed:     seed,
				Space:    polystyrene.Torus(w, h),
				Shape:    polystyrene.TorusShape(w, h, 1),
				Baseline: baseline,
			})
			if err != nil {
				t.Fatal(err)
			}
			sys.Run(20)
			sys.CrashRegion(func(p []float64) bool { return p[0] >= w/2 })
			if !viewNamesDeadPeer(sys) {
				t.Fatalf("seed %d baseline=%v: no view names a crashed peer right after the crash", seed, baseline)
			}
			ran := 0
			for _, after := range []int{0, 1, 4, 14} {
				sys.Run(after - ran)
				ran = after
				ep := sys.ServeSnapshot()
				for _, q := range queries {
					got := sys.Lookup(q)
					id, d, _, ok := ep.Lookup(q)
					if !ok || got != int(id) {
						t.Fatalf("seed %d baseline=%v, %d rounds after the crash: Lookup(%v) = %d, epoch = %d (ok %v)",
							seed, baseline, after, q, got, id, ok)
					}
					if fd := spc.Distance(q, sys.NodePosition(got)); math.Float64bits(fd) != math.Float64bits(d) {
						t.Fatalf("seed %d baseline=%v, %d rounds after the crash: Lookup(%v) distance %v, epoch %v",
							seed, baseline, after, q, fd, d)
					}
				}
			}
		}
	}
}

// viewNamesDeadPeer reports whether some live node's 8 closest overlay
// neighbours include a crashed node.
func viewNamesDeadPeer(sys *polystyrene.System) bool {
	live := make(map[int]bool)
	for _, id := range sys.Live() {
		live[id] = true
	}
	for id := range live {
		for _, nb := range sys.Neighbors(id, 8) {
			if !live[nb] {
				return true
			}
		}
	}
	return false
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
