package failures

import (
	"testing"

	"polystyrene/internal/scenario"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

func gridPositions(w, h int) []space.Point { return space.TorusGrid(w, h, 1) }

func TestHierarchyValidation(t *testing.T) {
	pts := gridPositions(8, 4)
	if _, err := NewHierarchy(0, 2, Correlated, pts, 8, nil); err == nil {
		t.Fatal("zero datacenters accepted")
	}
	if _, err := NewHierarchy(2, 2, Placement(9), pts, 8, nil); err == nil {
		t.Fatal("bad placement accepted")
	}
	if _, err := NewHierarchy(2, 2, Correlated, pts, 0, nil); err == nil {
		t.Fatal("correlated without width accepted")
	}
	if _, err := NewHierarchy(2, 2, Scattered, pts, 8, nil); err == nil {
		t.Fatal("scattered without rng accepted")
	}
}

func TestCorrelatedAssignmentIsContiguous(t *testing.T) {
	pts := gridPositions(16, 4)
	h, err := NewHierarchy(2, 2, Correlated, pts, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes in the first quarter of the width belong to dc 0 rack 0, etc.
	for i, p := range pts {
		id := sim.NodeID(i)
		wantBand := int(p[0] / 16 * 4)
		if got := h.Datacenter(id)*2 + h.Rack(id); got != wantBand {
			t.Fatalf("node %d at %v assigned band %d, want %d", id, p, got, wantBand)
		}
	}
}

func TestScatteredAssignmentIsSpread(t *testing.T) {
	pts := gridPositions(16, 8)
	h, err := NewHierarchy(4, 2, Scattered, pts, 16, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := range pts {
		counts[h.Datacenter(sim.NodeID(i))]++
	}
	for dc := 0; dc < 4; dc++ {
		if counts[dc] < 10 {
			t.Fatalf("datacenter %d holds only %d of 128 nodes", dc, counts[dc])
		}
	}
}

func TestAssignAndLookup(t *testing.T) {
	// Six racks in two datacenters over a width-6 line: node x sits in
	// global rack x, i.e. datacenter x/3, rack x%3.
	h, err := NewHierarchy(2, 3, Correlated, gridPositions(6, 1), 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Datacenter(5) != 1 || h.Rack(5) != 2 {
		t.Fatalf("lookup = (%d,%d)", h.Datacenter(5), h.Rack(5))
	}
	if h.Datacenter(99) != -1 || h.Rack(99) != -1 {
		t.Fatal("unknown node should be (-1,-1)")
	}
}

func TestFailDatacenterAndRack(t *testing.T) {
	sc := scenario.MustNew(scenario.Config{Seed: 3, W: 16, H: 8, Polystyrene: true, SkipMetrics: true})
	h, err := NewHierarchy(2, 2, Correlated, sc.Points, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc.Run(5)
	before := sc.Engine.NumLive()
	killed := h.FailRack(sc.Engine, 0, 0)
	if killed != 32 { // a quarter of the 128 nodes
		t.Fatalf("rack failure killed %d, want 32", killed)
	}
	killed = h.FailDatacenter(sc.Engine, 1)
	if killed != 64 {
		t.Fatalf("datacenter failure killed %d, want 64", killed)
	}
	if got := sc.Engine.NumLive(); got != before-96 {
		t.Fatalf("live = %d", got)
	}
	for _, id := range sc.Engine.LiveIDs() {
		if h.Datacenter(id) == 1 {
			t.Fatalf("node %d of the dead datacenter is still live", id)
		}
	}
}

func TestLargestHoleDistinguishesPlacements(t *testing.T) {
	// The structural point of the paper's Sec. II-A: under correlated
	// placement a datacenter failure removes one contiguous slab of the
	// shape (a wide hole); the same number of scattered crashes leaves
	// only slivers.
	pts := gridPositions(32, 8)
	corr, err := NewHierarchy(4, 1, Correlated, pts, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	scat, err := NewHierarchy(4, 1, Scattered, pts, 32, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	survivorsAfterDC2 := func(h *Hierarchy) []space.Point {
		var out []space.Point
		for i := range pts {
			if h.Datacenter(sim.NodeID(i)) != 2 {
				out = append(out, pts[i])
			}
		}
		return out
	}
	corrHole := LargestHole(survivorsAfterDC2(corr), 32, 32)
	scatHole := LargestHole(survivorsAfterDC2(scat), 32, 32)
	if corrHole < 0.2 || corrHole > 0.3 {
		t.Fatalf("correlated hole %v, want ~0.25 (one contiguous quarter)", corrHole)
	}
	if scatHole > corrHole/2 {
		t.Fatalf("scattered hole %v not far below correlated %v", scatHole, corrHole)
	}
}

func TestLargestHoleEdgeCases(t *testing.T) {
	if LargestHole(nil, 10, 8) != 1 {
		t.Fatal("empty survivor set should be one full hole")
	}
	if LargestHole([]space.Point{{1, 1}}, 10, 0) != 0 {
		t.Fatal("zero resolution should be 0")
	}
	// One survivor at band 5 of 10: the hole wraps around and covers the
	// other 9 bands.
	if got := LargestHole([]space.Point{{5, 0}}, 10, 10); got != 0.9 {
		t.Fatalf("wrap-around hole = %v, want 0.9", got)
	}
	// Full coverage: no hole.
	full := make([]space.Point, 10)
	for i := range full {
		full[i] = space.Point{float64(i), 0}
	}
	if got := LargestHole(full, 10, 10); got != 0 {
		t.Fatalf("full coverage hole = %v, want 0", got)
	}
}

func TestDatacenterFailureRecoveryEndToEnd(t *testing.T) {
	// The deployment story end to end: correlated placement, one of two
	// datacenters dies, Polystyrene re-forms the torus.
	sc := scenario.MustNew(scenario.Config{Seed: 5, W: 20, H: 10, Polystyrene: true, K: 6, SkipMetrics: true})
	h, err := NewHierarchy(2, 4, Correlated, sc.Points, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc.Run(12)
	if killed := h.FailDatacenter(sc.Engine, 1); killed != 100 {
		t.Fatalf("killed %d, want 100", killed)
	}
	sc.Run(20)
	if hom, ref := sc.Homogeneity(), sc.ReferenceHomogeneity(); hom >= ref {
		t.Fatalf("shape not recovered after datacenter loss: %v >= %v", hom, ref)
	}
	if rel := sc.Reliability(); rel < 0.95 {
		t.Fatalf("reliability %v with K=6", rel)
	}
}

// FailDatacenter, FailRack and LargestHole are the tests' direct
// injectors and damage measure; the runs crash domains through the
// schedules of schedule.go instead.

// FailDatacenter crashes every live node of the given datacenter and
// returns how many died.
func (h *Hierarchy) FailDatacenter(e *sim.Engine, dc int) int {
	killed := 0
	for _, id := range e.LiveIDs() {
		if h.Datacenter(id) == dc {
			e.Kill(id)
			killed++
		}
	}
	return killed
}

// FailRack crashes every live node of one rack and returns how many died.
func (h *Hierarchy) FailRack(e *sim.Engine, dc, rack int) int {
	killed := 0
	for _, id := range e.LiveIDs() {
		if h.Datacenter(id) == dc && h.Rack(id) == rack {
			e.Kill(id)
			killed++
		}
	}
	return killed
}

// LargestHole measures the damage a failure leaves in the shape: given
// the positions of the *surviving* nodes, it returns the widest
// contiguous fraction of the torus width (bucketed into resolution bands,
// with wrap-around) containing no survivor. A correlated datacenter crash
// leaves one wide hole (≈ the datacenter's slab); the same number of
// scattered crashes leaves only slivers — which is exactly the structural
// difference of the paper's Sec. II-A.
func LargestHole(survivors []space.Point, width float64, resolution int) float64 {
	if resolution <= 0 {
		return 0
	}
	if len(survivors) == 0 {
		return 1
	}
	covered := make([]bool, resolution)
	for _, p := range survivors {
		b := int(p[0] / width * float64(resolution))
		if b >= resolution {
			b = resolution - 1
		}
		if b < 0 {
			b = 0
		}
		covered[b] = true
	}
	// Longest run of uncovered bands on the circle: scan two laps to
	// handle wrap-around, capping the run at resolution.
	longest, run := 0, 0
	for i := 0; i < 2*resolution; i++ {
		if covered[i%resolution] {
			run = 0
			continue
		}
		run++
		if run > longest {
			longest = run
		}
		if longest >= resolution {
			break
		}
	}
	if longest > resolution {
		longest = resolution
	}
	return float64(longest) / float64(resolution)
}
