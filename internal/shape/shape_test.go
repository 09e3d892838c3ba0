package shape

import (
	"testing"

	"polystyrene/internal/core"
	"polystyrene/internal/fd"
	"polystyrene/internal/metrics"
	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/tman"
)

func TestGridDelegates(t *testing.T) {
	if len(Grid(4, 3, 1)) != 12 {
		t.Fatal("Grid size")
	}
}

func TestCross(t *testing.T) {
	pts := Cross(10, 10, 1)
	if len(pts) == 0 {
		t.Fatal("empty cross")
	}
	// Every point lies on one of the two centre lines.
	for _, p := range pts {
		if p[0] != 5 && p[1] != 5 {
			t.Fatalf("point %v off the cross arms", p)
		}
	}
	// No duplicate at the junction.
	seen := map[string]bool{}
	for _, p := range pts {
		if seen[p.Key()] {
			t.Fatalf("duplicate point %v", p)
		}
		seen[p.Key()] = true
	}
	if Cross(0, 1, 1) != nil {
		t.Fatal("degenerate cross not nil")
	}
}

func TestInternRegistersGeneratedShape(t *testing.T) {
	in := space.NewInterner()
	pts := Cross(25, 20, 0.5)
	ids := Intern(in, pts)
	if len(ids) != len(pts) || in.Len() != len(pts) {
		t.Fatalf("interned %d IDs / %d points for a %d-point shape",
			len(ids), in.Len(), len(pts))
	}
	for i, id := range ids {
		if !in.PointOf(id).Equal(pts[i]) {
			t.Fatalf("ID %d resolves to %v, want %v", id, in.PointOf(id), pts[i])
		}
	}
	// Re-interning the same shape is a no-op (same IDs, no growth).
	again := Intern(in, pts)
	for i := range ids {
		if again[i] != ids[i] {
			t.Fatalf("re-intern changed ID %d: %d -> %d", i, ids[i], again[i])
		}
	}
	if in.Len() != len(pts) {
		t.Fatalf("re-intern grew the universe to %d", in.Len())
	}
}

func TestBoundingTorus(t *testing.T) {
	pts := []space.Point{{3, 8}, {7, 2}}
	tor := BoundingTorus(pts, 1)
	if tor.Width(0) != 8 || tor.Width(1) != 9 {
		t.Fatalf("widths = %v,%v", tor.Width(0), tor.Width(1))
	}
	empty := BoundingTorus(nil, 1)
	if empty.Dim() != 2 {
		t.Fatal("empty bounding torus malformed")
	}
}

// TestCrossShapeSurvivesCatastrophe is the generality check behind the
// paper's title: the maintained shape need not be a grid. Build a cross,
// crash one arm, and verify the survivors re-form the whole cross.
func TestCrossShapeSurvivesCatastrophe(t *testing.T) {
	pts := Cross(20, 20, 0.5)
	tor := BoundingTorus(pts, 4)
	sampler := rps.New(rps.Config{})
	var poly *core.Protocol
	tm, err := tman.New(tman.Config{
		Space:   tor,
		Sampler: sampler,
		Position: func(id sim.NodeID) space.Point {
			return poly.Position(id)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	poly, err = core.New(core.Config{
		Space:    tor,
		Topology: tm,
		Sampler:  sampler,
		Detector: fd.Perfect{},
		K:        6,
		InitialPoint: func(id sim.NodeID) (space.Point, bool) {
			return pts[id], true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(42, sampler, tm, poly)
	e.AddNodes(len(pts))
	e.RunRounds(15)

	// Crash the entire right arm of the horizontal bar (x > 12.5).
	for _, id := range e.LiveIDs() {
		if poly.Position(id)[0] > 12.5 {
			e.Kill(id)
		}
	}
	e.RunRounds(25)

	sys := shapeSystem{e: e, poly: poly, tor: tor, tm: tm}
	hom := metrics.Homogeneity(sys, pts)
	// Cross spacing is 0.5 and the survivors cover ~60 points with ~45
	// nodes; each original point should be hosted within ~one spacing.
	if hom > 0.75 {
		t.Fatalf("cross shape not recovered: homogeneity %v", hom)
	}
	// The dead arm must be repopulated.
	rightArm := 0
	for _, id := range e.LiveIDs() {
		if p := poly.Position(id); p[0] > 12.5 && p[1] == 10 {
			rightArm++
		}
	}
	if rightArm == 0 {
		t.Fatal("no survivor migrated onto the crashed arm")
	}
}

// shapeSystem adapts the hand-built stack to metrics.System.
type shapeSystem struct {
	e    *sim.Engine
	poly *core.Protocol
	tor  space.Torus
	tm   *tman.Protocol
}

func (s shapeSystem) Space() space.Space                 { return s.tor }
func (s shapeSystem) Live() []sim.NodeID                 { return s.e.LiveIDs() }
func (s shapeSystem) Alive(id sim.NodeID) bool           { return s.e.Alive(id) }
func (s shapeSystem) Position(id sim.NodeID) space.Point { return s.poly.Position(id) }
func (s shapeSystem) Guests(id sim.NodeID) []space.Point { return s.poly.Guests(id) }
func (s shapeSystem) NumGuests(id sim.NodeID) int        { return s.poly.NumGuests(id) }
func (s shapeSystem) NumGhosts(id sim.NodeID) int        { return s.poly.NumGhosts(id) }
func (s shapeSystem) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	s.tm.EachNeighbor(id, k, yield)
}

// The generators below build shapes that no production path uses: Cross
// and BoundingTorus are the fixtures of TestCrossShapeSurvivesCatastrophe.

// Cross returns a plus-sign shape centred in a w x h box: points along the
// horizontal and vertical centre lines with the given step. Non-convex
// shapes like this exercise the medoid projection (a centroid would fall
// off the shape at the junction).
func Cross(w, h, step float64) []space.Point {
	if w <= 0 || h <= 0 || step <= 0 {
		return nil
	}
	var out []space.Point
	cy := h / 2
	for x := 0.0; x < w; x += step {
		out = append(out, space.Point{x, cy})
	}
	cx := w / 2
	for y := 0.0; y < h; y += step {
		if y == cy {
			continue // junction already present
		}
		out = append(out, space.Point{cx, y})
	}
	return out
}

// BoundingTorus returns a torus just enclosing the points' coordinate
// ranges (with the given margin per dimension), convenient for wrapping an
// arbitrary 2D shape into a modular space.
func BoundingTorus(points []space.Point, margin float64) space.Torus {
	if len(points) == 0 {
		return space.NewTorus(1, 1)
	}
	dim := len(points[0])
	maxs := make([]float64, dim)
	for _, p := range points {
		for d, c := range p {
			if c > maxs[d] {
				maxs[d] = c
			}
		}
	}
	widths := make([]float64, dim)
	for d := range widths {
		widths[d] = maxs[d] + margin
		if widths[d] <= 0 {
			widths[d] = margin
		}
	}
	return space.NewTorus(widths...)
}
