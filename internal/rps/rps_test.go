package rps

import (
	"testing"

	"polystyrene/internal/sim"
)

func newNetwork(t *testing.T, seed uint64, n int) (*sim.Engine, *Protocol) {
	t.Helper()
	p := New(Config{})
	e := sim.New(seed, p)
	e.AddNodes(n)
	return e, p
}

func checkViewInvariants(t *testing.T, e *sim.Engine, p *Protocol) {
	t.Helper()
	for _, id := range e.LiveIDs() {
		view := p.View(id)
		if len(view) > viewSize {
			t.Fatalf("node %d view size %d exceeds cap %d", id, len(view), viewSize)
		}
		seen := map[sim.NodeID]bool{}
		for _, peer := range view {
			if peer == id {
				t.Fatalf("node %d has itself in its view", id)
			}
			if seen[peer] {
				t.Fatalf("node %d has duplicate entry %d", id, peer)
			}
			seen[peer] = true
		}
	}
}

func TestBootstrapViews(t *testing.T) {
	e, p := newNetwork(t, 1, 100)
	checkViewInvariants(t, e, p)
	// The very first node joins an empty network and legitimately starts
	// with no neighbours; every later joiner must know someone.
	for _, id := range e.LiveIDs()[1:] {
		if len(p.View(id)) == 0 {
			t.Fatalf("node %d bootstrapped with empty view", id)
		}
	}
	// After one shuffle round even the first node is integrated.
	e.RunRounds(1)
	for _, id := range e.LiveIDs() {
		if len(p.View(id)) == 0 {
			t.Fatalf("node %d still has an empty view after a round", id)
		}
	}
}

func TestInvariantsHoldOverRounds(t *testing.T) {
	e, p := newNetwork(t, 2, 200)
	for i := 0; i < 30; i++ {
		e.RunRounds(1)
		checkViewInvariants(t, e, p)
	}
}

func TestSingleNodeNetwork(t *testing.T) {
	e, p := newNetwork(t, 3, 1)
	e.RunRounds(5) // must not panic or loop
	if len(p.View(0)) != 0 {
		t.Fatalf("lone node should have an empty view, got %v", p.View(0))
	}
	if p.RandomPeerW(e.SeqCtx(), 0) != sim.None {
		t.Fatal("lone node RandomPeerW should be None")
	}
}

func TestConnectivityAfterShuffles(t *testing.T) {
	// The union of views must keep the network connected (reachability from
	// node 0 covers everyone) after many shuffles.
	e, p := newNetwork(t, 4, 300)
	e.RunRounds(20)
	reached := map[sim.NodeID]bool{0: true}
	frontier := []sim.NodeID{0}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, id := range frontier {
			for _, peer := range p.View(id) {
				if !reached[peer] {
					reached[peer] = true
					next = append(next, peer)
				}
			}
		}
		frontier = next
	}
	if len(reached) != 300 {
		t.Fatalf("network partitioned: reached %d of 300", len(reached))
	}
}

func TestDeadNeighboursPurged(t *testing.T) {
	e, p := newNetwork(t, 5, 100)
	e.RunRounds(5)
	// Kill half the network; stale links must disappear from live views.
	for id := sim.NodeID(50); id < 100; id++ {
		e.Kill(id)
	}
	e.RunRounds(15)
	for _, id := range e.LiveIDs() {
		for _, peer := range p.View(id) {
			if !e.Alive(peer) {
				t.Fatalf("node %d still references dead node %d after 15 rounds", id, peer)
			}
		}
	}
}

func TestRandomPeerLiveAndCovering(t *testing.T) {
	e, p := newNetwork(t, 6, 60)
	e.RunRounds(10)
	covered := map[sim.NodeID]bool{}
	for i := 0; i < 2000; i++ {
		peer := p.RandomPeerW(e.SeqCtx(), 0)
		if peer == sim.None {
			t.Fatal("RandomPeerW returned None in a populated network")
		}
		if !e.Alive(peer) {
			t.Fatalf("RandomPeerW returned dead node %d", peer)
		}
		covered[peer] = true
		// Keep shuffling so the view refreshes and coverage grows.
		if i%50 == 49 {
			e.RunRounds(1)
		}
	}
	// Over 40 rounds of shuffling, node 0 should have seen a large part of
	// the 59 other nodes through its view.
	if len(covered) < 40 {
		t.Fatalf("RandomPeerW coverage too small: %d distinct peers", len(covered))
	}
}

func TestRandomPeersDistinct(t *testing.T) {
	e, p := newNetwork(t, 7, 50)
	e.RunRounds(5)
	peers := p.AppendRandomPeers(nil, e, 0, 5)
	if len(peers) == 0 {
		t.Fatal("AppendRandomPeers returned nothing")
	}
	seen := map[sim.NodeID]bool{}
	for _, peer := range peers {
		if seen[peer] {
			t.Fatalf("duplicate peer %d", peer)
		}
		if !e.Alive(peer) {
			t.Fatalf("dead peer %d", peer)
		}
		seen[peer] = true
	}
	// Asking for more than the view holds returns what is available.
	many := p.AppendRandomPeers(nil, e, 0, 1000)
	if len(many) > viewSize {
		t.Fatalf("AppendRandomPeers returned %d > view cap", len(many))
	}
}

func TestIndegreeBalance(t *testing.T) {
	// Cyclon keeps in-degrees concentrated: no node should be referenced
	// wildly more than average after mixing.
	e, p := newNetwork(t, 8, 200)
	e.RunRounds(30)
	indeg := map[sim.NodeID]int{}
	total := 0
	for _, id := range e.LiveIDs() {
		for _, peer := range p.View(id) {
			indeg[peer]++
			total++
		}
	}
	mean := float64(total) / 200
	for id, d := range indeg {
		if float64(d) > 5*mean {
			t.Errorf("node %d in-degree %d, mean %.1f: badly skewed", id, d, mean)
		}
	}
}

func TestLateJoinersIntegrate(t *testing.T) {
	e, p := newNetwork(t, 9, 50)
	e.RunRounds(10)
	newcomers := e.AddNodes(50)
	e.RunRounds(15)
	checkViewInvariants(t, e, p)
	// Newcomers must appear in some old node's view (they are discoverable).
	known := map[sim.NodeID]bool{}
	for _, id := range e.LiveIDs() {
		for _, peer := range p.View(id) {
			known[peer] = true
		}
	}
	missing := 0
	for _, id := range newcomers {
		if !known[id] {
			missing++
		}
	}
	if missing > 5 {
		t.Fatalf("%d of 50 newcomers still undiscovered after 15 rounds", missing)
	}
}

func TestReBootstrapAfterTotalViewLoss(t *testing.T) {
	// If every neighbour of a node dies, the node re-bootstraps.
	e, p := newNetwork(t, 10, 30)
	e.RunRounds(3)
	victim := sim.NodeID(0)
	for _, peer := range p.View(victim) {
		e.Kill(peer)
	}
	e.RunRounds(3)
	view := p.View(victim)
	if len(view) == 0 {
		t.Fatal("node did not re-bootstrap after losing its whole view")
	}
	for _, peer := range view {
		if !e.Alive(peer) {
			t.Fatalf("re-bootstrapped view contains dead node %d", peer)
		}
	}
}

// TestConfigDefaults: the view size is the paper's 20, so a node joining
// 100 live ones bootstraps exactly viewSize entries.
func TestConfigDefaults(t *testing.T) {
	e, p := newNetwork(t, 12, 100)
	joiner := e.AddNodes(1)[0]
	if got := len(p.View(joiner)); got != viewSize {
		t.Fatalf("late joiner bootstrapped %d entries, want %d", got, viewSize)
	}
	checkViewInvariants(t, e, p)
}

func TestRPSChargesNothing(t *testing.T) {
	e, _ := newNetwork(t, 11, 50)
	e.RunRounds(10)
	if cost := e.Meter().TotalCost("rps"); cost != 0 {
		t.Fatalf("rps charged %d units; the paper excludes peer sampling from cost accounting", cost)
	}
}

// TestGossipRoundAllocs pins the warmed steady-state shuffle round at 0
// allocs: the Cyclon exchange runs map-free over pooled buffers.
func TestGossipRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("AllocsPerRun is unreliable under -race; the race step runs -short")
	}
	// Views and pooled buffers reach their working sizes over the first
	// rounds; AllocsPerRun then averages (rounding down) over 30 warm
	// rounds at BenchmarkGossipRound's 2,000 nodes.
	e, _ := newNetwork(t, 1, 2000)
	e.RunRounds(30)
	if avg := testing.AllocsPerRun(30, func() { e.RunRounds(1) }); avg != 0 {
		t.Errorf("steady-state gossip round allocates %.1f objects, want 0", avg)
	}
}

// View returns a copy of id's current view (live and stale entries alike).
func (p *Protocol) View(id sim.NodeID) []sim.NodeID {
	view := p.view(id)
	out := make([]sim.NodeID, len(view))
	for i, en := range view {
		out[i] = sim.NodeID(en.id)
	}
	return out
}

// views returns every node's view, each a reslice of its row.
func (p *Protocol) views() [][]entry {
	out := make([][]entry, len(p.lens))
	for id := range out {
		out[id] = p.view(sim.NodeID(id))
	}
	return out
}
