package tman

import (
	"testing"

	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// testNet assembles RPS + T-Man over a fixed set of positions.
type testNet struct {
	engine    *sim.Engine
	sampler   *rps.Protocol
	tman      *Protocol
	positions []space.Point
	space     space.Space
}

func newTestNet(t *testing.T, seed uint64, s space.Space, pts []space.Point) *testNet {
	t.Helper()
	n := &testNet{sampler: rps.New(rps.Config{}), positions: pts, space: s}
	tm, err := New(Config{Space: s, Sampler: n.sampler,
		Position: func(id sim.NodeID) space.Point { return n.positions[id] }})
	if err != nil {
		t.Fatal(err)
	}
	n.tman = tm
	n.engine = sim.New(seed, n.sampler, tm)
	n.engine.AddNodes(len(pts))
	return n
}

// proximity returns the mean distance from each live node to its k
// closest T-Man neighbours.
func (n *testNet) proximity(k int) float64 {
	total, count := 0.0, 0
	for _, id := range n.engine.LiveIDs() {
		for _, nb := range n.tman.Neighbors(id, k) {
			total += n.space.Distance(n.positions[id], n.positions[nb])
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Space: space.NewEuclidean(2)}); err == nil {
		t.Fatal("config without sampler accepted")
	}
}

// TestDefaultsApplied: a carved row holds exactly a view at the paper's
// cap of 100; a merge's received descriptors never land in the row.
func TestDefaultsApplied(t *testing.T) {
	net := newTestNet(t, 1, space.TorusForGrid(4, 4, 1), space.TorusGrid(4, 4, 1))
	for id, view := range net.tman.views {
		if cap(view) != 100 {
			t.Fatalf("node %d row capacity %d, want 100", id, cap(view))
		}
	}
}

func TestInitSeedsViews(t *testing.T) {
	pts := space.TorusGrid(10, 10, 1)
	net := newTestNet(t, 1, space.TorusForGrid(10, 10, 1), pts)
	empty := 0
	for _, id := range net.engine.LiveIDs() {
		if net.tman.ViewSize(id) == 0 {
			empty++
		}
	}
	// Only the earliest joiners (bootstrapping an empty network) may start
	// with few peers.
	if empty > 2 {
		t.Fatalf("%d nodes started with empty T-Man views", empty)
	}
}

func TestConvergenceOnTorusGrid(t *testing.T) {
	// On a 20x10 grid with step 1, a converged T-Man gives each node 4
	// neighbours at distance 1, so proximity ~1. Paper: converges in <20
	// rounds for 3200 nodes; our smaller grid is faster.
	const w, h = 20, 10
	pts := space.TorusGrid(w, h, 1)
	net := newTestNet(t, 2, space.TorusForGrid(w, h, 1), pts)
	net.engine.RunRounds(20)
	if prox := net.proximity(4); prox > 1.05 {
		t.Fatalf("proximity after 20 rounds = %v, want ~1.0", prox)
	}
}

func TestNeighborsSortedByDistance(t *testing.T) {
	pts := space.TorusGrid(10, 10, 1)
	s := space.TorusForGrid(10, 10, 1)
	net := newTestNet(t, 3, s, pts)
	net.engine.RunRounds(10)
	for _, id := range net.engine.LiveIDs() {
		nbs := net.tman.Neighbors(id, 6)
		for i := 1; i < len(nbs); i++ {
			d0 := s.Distance(pts[id], pts[nbs[i-1]])
			d1 := s.Distance(pts[id], pts[nbs[i]])
			if d0 > d1+1e-9 {
				t.Fatalf("node %d neighbours not sorted: %v then %v", id, d0, d1)
			}
		}
	}
}

// TestViewCapRespected: on 256 nodes, views grow to the cap of 100 and no
// further.
func TestViewCapRespected(t *testing.T) {
	pts := space.TorusGrid(16, 16, 1)
	net := newTestNet(t, 4, space.TorusForGrid(16, 16, 1), pts)
	net.engine.RunRounds(15)
	full := 0
	for _, id := range net.engine.LiveIDs() {
		got := net.tman.ViewSize(id)
		if got > viewCap {
			t.Fatalf("node %d view size %d exceeds cap %d", id, got, viewCap)
		}
		if got == viewCap {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no view reached the cap of %d; the test does not exercise it", viewCap)
	}
	t.Logf("%d of %d views at the cap", full, len(pts))
}

func TestNoSelfOrDuplicateInView(t *testing.T) {
	pts := space.TorusGrid(8, 8, 1)
	net := newTestNet(t, 5, space.TorusForGrid(8, 8, 1), pts)
	net.engine.RunRounds(10)
	for _, id := range net.engine.LiveIDs() {
		seen := map[sim.NodeID]bool{}
		for _, v := range net.tman.View(id) {
			if v == id {
				t.Fatalf("node %d references itself", id)
			}
			if seen[v] {
				t.Fatalf("node %d has duplicate %d", id, v)
			}
			seen[v] = true
		}
	}
}

func TestHealingAfterUncorrelatedChurn(t *testing.T) {
	pts := space.TorusGrid(12, 12, 1)
	s := space.TorusForGrid(12, 12, 1)
	net := newTestNet(t, 6, s, pts)
	net.engine.RunRounds(15)
	// Kill 30% of nodes at random (uncorrelated churn).
	rng := net.engine.Rand()
	for _, idx := range rng.Sample(len(pts), len(pts)*3/10) {
		net.engine.Kill(sim.NodeID(idx))
	}
	net.engine.RunRounds(15)
	for _, id := range net.engine.LiveIDs() {
		for _, v := range net.tman.View(id) {
			if !net.engine.Alive(v) {
				t.Fatalf("node %d still references dead node %d", id, v)
			}
		}
		if len(net.tman.Neighbors(id, 2)) == 0 {
			t.Fatalf("node %d is isolated after churn", id)
		}
	}
}

func TestShapeLossAfterCorrelatedFailure(t *testing.T) {
	// The motivating observation (Fig. 1): plain T-Man heals its links but
	// cannot recover the torus shape — surviving nodes keep their original
	// positions, so the left half stays at proximity ~1 while the whole
	// right half of the shape remains empty. We assert the healing part
	// here; shape (homogeneity) assertions live in the metrics/scenario
	// packages.
	const w, h = 16, 8
	pts := space.TorusGrid(w, h, 1)
	s := space.TorusForGrid(w, h, 1)
	net := newTestNet(t, 7, s, pts)
	net.engine.RunRounds(20)
	for i, p := range pts {
		if space.RightHalf(p, float64(w)) {
			net.engine.Kill(sim.NodeID(i))
		}
	}
	net.engine.RunRounds(20)
	if live := net.engine.NumLive(); live != w*h/2 {
		t.Fatalf("live = %d, want %d", live, w*h/2)
	}
	for _, id := range net.engine.LiveIDs() {
		for _, v := range net.tman.View(id) {
			if !net.engine.Alive(v) {
				t.Fatalf("node %d references dead node %d after healing", id, v)
			}
		}
	}
	// Positions never moved: every survivor is still in the left half.
	for _, id := range net.engine.LiveIDs() {
		if space.RightHalf(pts[id], float64(w)) {
			t.Fatalf("node %d in right half survived the kill", id)
		}
	}
}

func TestDynamicPositionsAreHonoured(t *testing.T) {
	// Moving a node's position (as Polystyrene does) must steer its
	// neighbourhood to the new location.
	const w, h = 16, 8
	pts := space.TorusGrid(w, h, 1)
	s := space.TorusForGrid(w, h, 1)
	net := newTestNet(t, 8, s, pts)
	move := useMoveClock(net)
	net.engine.RunRounds(15)
	// Teleport node 0 to the far corner of the torus.
	target := space.Point{12, 4}
	net.positions[0] = target
	move(0)
	net.engine.RunRounds(15)
	nbs := net.tman.Neighbors(0, 4)
	if len(nbs) == 0 {
		t.Fatal("node 0 has no neighbours after moving")
	}
	for _, nb := range nbs {
		if d := s.Distance(target, net.positions[nb]); d > 2.5 {
			t.Fatalf("neighbour %d at distance %v from new position; view did not follow the move", nb, d)
		}
	}
}

func TestMessageCostCharged(t *testing.T) {
	pts := space.TorusGrid(10, 10, 1)
	net := newTestNet(t, 9, space.TorusForGrid(10, 10, 1), pts)
	net.engine.RunRounds(5)
	if cost := net.engine.Meter().TotalCost("tman"); cost == 0 {
		t.Fatal("T-Man charged no communication cost")
	}
	// Per-round, per-node cost must be bounded by refresh (viewCap*2) plus
	// two buffers per exchange and a node can partner in several exchanges.
	perNode := float64(net.engine.Meter().RoundCost("tman", 4)) / 100
	upper := float64(viewCap*2 + 10*2*DefaultMsgSize*3)
	if perNode <= 0 || perNode > upper {
		t.Fatalf("per-node round cost %v outside (0, %v]", perNode, upper)
	}
}

func TestNeighborsEdgeCases(t *testing.T) {
	pts := space.TorusGrid(4, 4, 1)
	net := newTestNet(t, 10, space.TorusForGrid(4, 4, 1), pts)
	if got := net.tman.Neighbors(99, 4); got != nil {
		t.Fatalf("unknown node neighbours = %v", got)
	}
	if got := net.tman.Neighbors(0, 0); got != nil {
		t.Fatalf("k=0 neighbours = %v", got)
	}
	if got := net.tman.View(99); got != nil {
		t.Fatalf("unknown node view = %v", got)
	}
	if got := net.tman.ViewSize(99); got != 0 {
		t.Fatalf("unknown node view size = %d", got)
	}
}

// ViewSize and View expose raw views to the tests.

// ViewSize returns the current view size of id.
func (p *Protocol) ViewSize(id sim.NodeID) int {
	if id < 0 || int(id) >= len(p.views) {
		return 0
	}
	return len(p.views[id])
}

// View returns a copy of id's raw view.
func (p *Protocol) View(id sim.NodeID) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) {
		return nil
	}
	return appendNodeIDs(make([]sim.NodeID, 0, len(p.views[id])), p.views[id])
}
