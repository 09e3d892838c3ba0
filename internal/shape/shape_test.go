package shape

import (
	"math"
	"testing"

	"polystyrene/internal/core"
	"polystyrene/internal/fd"
	"polystyrene/internal/metrics"
	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/tman"
	"polystyrene/internal/xrand"
)

func TestGridAndRingDelegate(t *testing.T) {
	if len(Grid(4, 3, 1)) != 12 {
		t.Fatal("Grid size")
	}
	if len(Ring(7, 70)) != 7 {
		t.Fatal("Ring size")
	}
}

func TestClusters(t *testing.T) {
	rng := xrand.New(1)
	centers := []space.Point{{0, 0}, {100, 100}}
	pts := Clusters(centers, 50, 2, rng)
	if len(pts) != 100 {
		t.Fatalf("points = %d", len(pts))
	}
	// Points must sit near their own centre, far from the other.
	for i, p := range pts {
		c := centers[i/50]
		d := math.Hypot(p[0]-c[0], p[1]-c[1])
		if d > 12 { // 6 sigma
			t.Fatalf("point %d at distance %v from its centre", i, d)
		}
	}
	if Clusters(nil, 5, 1, rng) != nil || Clusters(centers, 0, 1, rng) != nil {
		t.Fatal("degenerate clusters not nil")
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

func TestSphere(t *testing.T) {
	pts := Sphere(200, 5)
	if len(pts) != 200 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		r := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
		if math.Abs(r-5) > 1e-9 {
			t.Fatalf("point %v at radius %v, want 5", p, r)
		}
	}
	// Roughly balanced hemispheres.
	north := 0
	for _, p := range pts {
		if p[1] > 0 {
			north++
		}
	}
	if north < 80 || north > 120 {
		t.Fatalf("northern hemisphere holds %d of 200", north)
	}
	if Sphere(0, 1) != nil || Sphere(1, 0) != nil {
		t.Fatal("degenerate sphere not nil")
	}
}

func TestUniformTorus(t *testing.T) {
	tor := space.NewTorus(10, 20)
	pts := UniformTorus(500, tor, xrand.New(2))
	if len(pts) != 500 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p[0] < 0 || p[0] >= 10 || p[1] < 0 || p[1] >= 20 {
			t.Fatalf("point %v out of torus", p)
		}
	}
	if UniformTorus(0, tor, xrand.New(1)) != nil {
		t.Fatal("degenerate cloud not nil")
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

// The generators below build shapes that no production path uses. Cross
// and BoundingTorus are the fixtures of TestCrossShapeSurvivesCatastrophe;
// the others are tested only by their own tests.

// Ring returns n points evenly spaced on a 1D ring.
func Ring(n int, circumference float64) []space.Point {
	return space.RingPoints(n, circumference)
}

// Clusters returns Gaussian blobs: for each centre, perCluster points
// drawn from an isotropic normal with the given standard deviation. This
// is the semantic-community shape of recommendation overlays.
func Clusters(centers []space.Point, perCluster int, stddev float64, rng *xrand.Rand) []space.Point {
	if perCluster <= 0 || len(centers) == 0 {
		return nil
	}
	out := make([]space.Point, 0, len(centers)*perCluster)
	for _, c := range centers {
		for i := 0; i < perCluster; i++ {
			p := make(space.Point, len(c))
			for d := range c {
				p[d] = c[d] + stddev*math.Sqrt(-2*math.Log(1-rng.Float64()))*math.Cos(2*math.Pi*rng.Float64())
			}
			out = append(out, p)
		}
	}
	return out
}

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

// Sphere returns n points approximately evenly distributed on the surface
// of a 3D sphere (Fibonacci lattice) with the given radius, centred at the
// origin — a shape for 3D Euclidean deployments.
func Sphere(n int, radius float64) []space.Point {
	if n <= 0 || radius <= 0 {
		return nil
	}
	out := make([]space.Point, n)
	golden := math.Pi * (3 - math.Sqrt(5))
	for i := 0; i < n; i++ {
		y := 1 - 2*float64(i)/float64(max(n-1, 1))
		r := math.Sqrt(math.Max(0, 1-y*y))
		theta := golden * float64(i)
		out[i] = space.Point{
			radius * r * math.Cos(theta),
			radius * y,
			radius * r * math.Sin(theta),
		}
	}
	return out
}

// UniformTorus returns n points drawn uniformly at random on the torus.
func UniformTorus(n int, t space.Torus, rng *xrand.Rand) []space.Point {
	if n <= 0 {
		return nil
	}
	out := make([]space.Point, n)
	for i := range out {
		p := make(space.Point, t.Dim())
		for d := range p {
			p[d] = rng.Float64() * t.Width(d)
		}
		out[i] = p
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
