package space

import (
	"math"
	"testing"
	"testing/quick"

	"polystyrene/internal/xrand"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEuclideanDistance(t *testing.T) {
	e := NewEuclidean(2)
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 2}, 1},
		{Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, c := range cases {
		if got := e.Distance(c.a, c.b); !almostEqual(got, c.want) {
			t.Errorf("Distance(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestManhattanDistance(t *testing.T) {
	m := NewManhattan(3)
	if got := m.Distance(Point{0, 0, 0}, Point{1, -2, 3}); !almostEqual(got, 6) {
		t.Errorf("Manhattan distance = %v, want 6", got)
	}
}

func TestTorusDistanceWraps(t *testing.T) {
	tor := NewTorus(80, 40)
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{79, 0}, 1},  // wrap in x
		{Point{0, 0}, Point{0, 39}, 1},  // wrap in y
		{Point{0, 0}, Point{40, 0}, 40}, // antipodal in x
		{Point{0, 0}, Point{40, 20}, math.Sqrt(40*40 + 20*20)},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{2, 0}, Point{78, 0}, 4},
	}
	for _, c := range cases {
		if got := tor.Distance(c.a, c.b); !almostEqual(got, c.want) {
			t.Errorf("torus Distance(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTorusWrap(t *testing.T) {
	tor := NewTorus(10, 10)
	got := tor.Wrap(Point{-1, 23})
	if !got.Equal(Point{9, 3}) {
		t.Errorf("Wrap(-1,23) = %v, want (9,3)", got)
	}
	if a := tor.Area(); !almostEqual(a, 100) {
		t.Errorf("Area = %v, want 100", a)
	}
}

func TestRingDistance(t *testing.T) {
	r := NewRing(100)
	if got := r.Distance(Point{1}, Point{99}); !almostEqual(got, 2) {
		t.Errorf("ring Distance(1,99) = %v, want 2", got)
	}
}

func TestHammingDistance(t *testing.T) {
	h := NewHamming(4)
	if got := h.Distance(Point{1, 0, 1, 0}, Point{1, 1, 1, 1}); !almostEqual(got, 2) {
		t.Errorf("Hamming distance = %v, want 2", got)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	NewEuclidean(2).Distance(Point{1}, Point{1, 2})
}

func TestPointEqualAndKey(t *testing.T) {
	a := Point{1, 2}
	b := Point{1, 2}
	c := Point{1, 3}
	if !a.Equal(b) || a.Equal(c) || a.Equal(Point{1}) {
		t.Error("Point.Equal misbehaves")
	}
	if a.Key() != b.Key() {
		t.Error("equal points must share a key")
	}
	if a.Key() == c.Key() {
		t.Error("distinct points must have distinct keys")
	}
	if got := a.Clone(); !got.Equal(a) {
		t.Error("Clone changed the point")
	}
	clone := a.Clone()
	clone[0] = 42
	if a[0] == 42 {
		t.Error("Clone aliases the original")
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{1, 2.5}).String(); got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
}

// metricAxioms verifies the metric axioms for s on randomly drawn points.
func metricAxioms(t *testing.T, s Space, gen func(r *xrand.Rand) Point) {
	t.Helper()
	r := xrand.New(1234)
	for i := 0; i < 500; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		dab := s.Distance(a, b)
		dba := s.Distance(b, a)
		if dab < 0 {
			t.Fatalf("negative distance d(%v,%v)=%v", a, b, dab)
		}
		if !almostEqual(dab, dba) {
			t.Fatalf("asymmetric distance d(%v,%v)=%v d(b,a)=%v", a, b, dab, dba)
		}
		if d := s.Distance(a, a); !almostEqual(d, 0) {
			t.Fatalf("d(a,a)=%v for %v", d, a)
		}
		dac := s.Distance(a, c)
		dcb := s.Distance(c, b)
		if dab > dac+dcb+1e-9 {
			t.Fatalf("triangle inequality violated: d(%v,%v)=%v > %v+%v", a, b, dab, dac, dcb)
		}
	}
}

func TestMetricAxioms(t *testing.T) {
	uniform := func(lo, hi float64, dim int) func(r *xrand.Rand) Point {
		return func(r *xrand.Rand) Point {
			p := make(Point, dim)
			for i := range p {
				p[i] = lo + (hi-lo)*r.Float64()
			}
			return p
		}
	}
	t.Run("euclidean", func(t *testing.T) { metricAxioms(t, NewEuclidean(3), uniform(-10, 10, 3)) })
	t.Run("manhattan", func(t *testing.T) { metricAxioms(t, NewManhattan(2), uniform(-5, 5, 2)) })
	t.Run("torus", func(t *testing.T) { metricAxioms(t, NewTorus(80, 40), uniform(0, 80, 2)) })
	t.Run("ring", func(t *testing.T) { metricAxioms(t, NewRing(100), uniform(0, 100, 1)) })
	t.Run("hamming", func(t *testing.T) {
		metricAxioms(t, NewHamming(8), func(r *xrand.Rand) Point {
			p := make(Point, 8)
			for i := range p {
				if r.Bool(0.5) {
					p[i] = 1
				}
			}
			return p
		})
	})
}

func TestTorusDistanceInvariantUnderWrap(t *testing.T) {
	// Property: distance is invariant when either argument is shifted by a
	// full circumference in any dimension.
	tor := NewTorus(80, 40)
	f := func(ax, ay, bx, by float64, kx, ky int8) bool {
		a := tor.Wrap(Point{math.Mod(math.Abs(ax), 80), math.Mod(math.Abs(ay), 40)})
		b := tor.Wrap(Point{math.Mod(math.Abs(bx), 80), math.Mod(math.Abs(by), 40)})
		shifted := Point{b[0] + 80*float64(kx), b[1] + 40*float64(ky)}
		return almostEqual(tor.Distance(a, b), tor.Distance(a, tor.Wrap(shifted)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMedoidMinimality(t *testing.T) {
	s := NewTorus(80, 40)
	r := xrand.New(7)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(12)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{80 * r.Float64(), 40 * r.Float64()}
		}
		m := Medoid(s, pts)
		if m < 0 || m >= n {
			t.Fatalf("Medoid index %d out of range", m)
		}
		mCost := SumSquaredTo(s, pts[m], pts) // includes d(m,m)=0 so same objective
		for i := range pts {
			if c := SumSquaredTo(s, pts[i], pts); c < mCost-1e-9 {
				t.Fatalf("trial %d: point %d has cost %v < medoid cost %v", trial, i, c, mCost)
			}
		}
	}
}

func TestMedoidEmptyAndSingle(t *testing.T) {
	s := NewEuclidean(2)
	if got := Medoid(s, nil); got != -1 {
		t.Errorf("Medoid(empty) = %d, want -1", got)
	}
	if got := MedoidPoint(s, nil); got != nil {
		t.Errorf("MedoidPoint(empty) = %v, want nil", got)
	}
	if got := Medoid(s, []Point{{5, 5}}); got != 0 {
		t.Errorf("Medoid(single) = %d, want 0", got)
	}
}

func TestMedoidMatchesPaperExample(t *testing.T) {
	// In a symmetric line of three points the middle one is the medoid.
	s := NewEuclidean(1)
	pts := []Point{{0}, {1}, {2}}
	if got := Medoid(s, pts); got != 1 {
		t.Errorf("Medoid of {0,1,2} = index %d, want 1", got)
	}
}

func TestDiameterExact(t *testing.T) {
	s := NewEuclidean(2)
	pts := []Point{{0, 0}, {1, 0}, {5, 0}, {2, 2}}
	i, j, d := Diameter(s, pts)
	if !(i == 0 && j == 2) || !almostEqual(d, 5) {
		t.Errorf("Diameter = (%d,%d,%v), want (0,2,5)", i, j, d)
	}
	if i, j, d := Diameter(s, pts[:1]); i != -1 || j != -1 || d != 0 {
		t.Errorf("Diameter(single) = (%d,%d,%v)", i, j, d)
	}
}

func TestDiameterSampledExactWhenSmall(t *testing.T) {
	s := NewEuclidean(2)
	r := xrand.New(5)
	pts := []Point{{0, 0}, {1, 0}, {5, 0}, {2, 2}}
	i, j, d := DiameterSampled(s, pts, 100, r)
	if !(i == 0 && j == 2) || !almostEqual(d, 5) {
		t.Errorf("DiameterSampled(small) = (%d,%d,%v), want exact (0,2,5)", i, j, d)
	}
}

func TestDiameterSampledApproximation(t *testing.T) {
	// On many random points, the sampled diameter must be a valid pair and
	// reach a decent fraction of the true diameter.
	s := NewEuclidean(2)
	r := xrand.New(9)
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{r.Float64() * 100, r.Float64() * 100}
	}
	_, _, exact := Diameter(s, pts)
	i, j, approx := DiameterSampled(s, pts, 500, r)
	if i < 0 || j < 0 || i == j {
		t.Fatalf("invalid sampled pair (%d,%d)", i, j)
	}
	if approx > exact+1e-9 {
		t.Fatalf("sampled diameter %v exceeds exact %v", approx, exact)
	}
	if approx < 0.5*exact {
		t.Fatalf("sampled diameter %v too small vs exact %v", approx, exact)
	}
}

func TestScatter(t *testing.T) {
	s := NewEuclidean(1)
	// pairs: (0,1):1 (0,3):9 (1,3):4 -> 14
	if got := Scatter(s, []Point{{0}, {1}, {3}}); !almostEqual(got, 14) {
		t.Errorf("Scatter = %v, want 14", got)
	}
}

func TestNearest(t *testing.T) {
	s := NewEuclidean(2)
	pts := []Point{{0, 0}, {10, 0}, {3, 0}}
	i, d := Nearest(s, Point{4, 0}, pts)
	if i != 2 || !almostEqual(d, 1) {
		t.Errorf("Nearest = (%d,%v), want (2,1)", i, d)
	}
	if i, _ := Nearest(s, Point{0, 0}, nil); i != -1 {
		t.Errorf("Nearest(empty) = %d, want -1", i)
	}
}

func TestKNearestOrdering(t *testing.T) {
	s := NewEuclidean(1)
	pts := []Point{{10}, {1}, {7}, {2}, {100}}
	got := KNearest(s, Point{0}, pts, 3)
	want := []int{1, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("KNearest = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KNearest = %v, want %v", got, want)
		}
	}
}

func TestKNearestEdgeCases(t *testing.T) {
	s := NewEuclidean(1)
	pts := []Point{{1}, {2}}
	if got := KNearest(s, Point{0}, pts, 0); got != nil {
		t.Errorf("k=0 should return nil, got %v", got)
	}
	if got := KNearest(s, Point{0}, pts, 5); len(got) != 2 {
		t.Errorf("k>n should return all, got %v", got)
	}
	if got := KNearest(s, Point{0}, nil, 3); len(got) != 0 {
		t.Errorf("empty points should return empty, got %v", got)
	}
}

func TestKNearestMatchesBruteForce(t *testing.T) {
	s := NewTorus(50, 50)
	r := xrand.New(31)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{50 * r.Float64(), 50 * r.Float64()}
		}
		x := Point{50 * r.Float64(), 50 * r.Float64()}
		k := 1 + r.Intn(6)
		got := KNearest(s, x, pts, k)
		// Brute force: the k-th smallest distance bounds every selected one.
		dists := make([]float64, n)
		for i, p := range pts {
			dists[i] = s.Distance(x, p)
		}
		for rank := 1; rank < len(got); rank++ {
			if s.Distance(x, pts[got[rank-1]]) > s.Distance(x, pts[got[rank]])+1e-12 {
				t.Fatalf("KNearest not sorted: %v", got)
			}
		}
		kth := s.Distance(x, pts[got[len(got)-1]])
		below := 0
		for _, d := range dists {
			if d < kth-1e-12 {
				below++
			}
		}
		if below > len(got)-1 {
			t.Fatalf("KNearest missed closer points: %d closer than kth", below)
		}
	}
}

func TestTorusGrid(t *testing.T) {
	pts := TorusGrid(4, 3, 2)
	if len(pts) != 12 {
		t.Fatalf("grid size %d, want 12", len(pts))
	}
	if !pts[0].Equal(Point{0, 0}) || !pts[1].Equal(Point{2, 0}) || !pts[4].Equal(Point{0, 2}) {
		t.Errorf("unexpected grid layout: %v %v %v", pts[0], pts[1], pts[4])
	}
	tor := TorusForGrid(4, 3, 2)
	if tor.Width(0) != 8 || tor.Width(1) != 6 {
		t.Errorf("TorusForGrid widths = %v,%v", tor.Width(0), tor.Width(1))
	}
	// Neighbouring grid points are at distance step.
	if d := tor.Distance(pts[0], pts[1]); !almostEqual(d, 2) {
		t.Errorf("adjacent grid distance %v, want 2", d)
	}
}

func TestRingPoints(t *testing.T) {
	pts := RingPoints(4, 100)
	want := []float64{0, 25, 50, 75}
	for i, p := range pts {
		if !almostEqual(p[0], want[i]) {
			t.Errorf("RingPoints[%d] = %v, want %v", i, p[0], want[i])
		}
	}
}

func TestRightHalf(t *testing.T) {
	if RightHalf(Point{39, 0}, 80) {
		t.Error("39 should be left half of width 80")
	}
	if !RightHalf(Point{40, 0}, 80) {
		t.Error("40 should be right half of width 80")
	}
}

func TestGridPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"grid":   func() { TorusGrid(0, 1, 1) },
		"ring":   func() { RingPoints(0, 1) },
		"torus":  func() { NewTorus() },
		"widths": func() { NewTorus(-1) },
		"eucl":   func() { NewEuclidean(0) },
		"manh":   func() { NewManhattan(0) },
		"hamm":   func() { NewHamming(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkTorusDistance(b *testing.B) {
	tor := NewTorus(80, 40)
	a, c := Point{1, 2}, Point{70, 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tor.Distance(a, c)
	}
}

func BenchmarkMedoid20(b *testing.B) {
	// Callers hold the space as a Space already; converting the Torus on
	// every call would time an allocation they never make.
	var s Space = NewTorus(80, 40)
	r := xrand.New(1)
	pts := make([]Point, 20)
	for i := range pts {
		pts[i] = Point{80 * r.Float64(), 40 * r.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Medoid(s, pts)
	}
}

// BenchmarkRowDistances times the ranking kernel the way T-Man drives it:
// a 51,200-row position table (the paper's largest grid) and 101-entry
// views of nodes near each owner, stored scattered through the table,
// ranked against a different owner on every iteration. Unlike
// BenchmarkTorusDistance's one fixed pair, the signs of the deltas vary
// from row to row, so a kernel that branches on them pays for the
// mispredictions here. Row ids are int32, as in T-Man's views, so the
// benchmark times the instantiation production runs. One op is one
// 101-entry view.
func BenchmarkRowDistances(b *testing.B) {
	const w, h, viewLen, nViews = 320, 160, 101, 1024
	var s Space = TorusForGrid(w, h, 1)
	table := make([]float64, 0, 2*w*h)
	for _, p := range TorusGrid(w, h, 1) {
		table = append(table, p...)
	}
	r := xrand.New(5)
	views := make([][]int32, nViews)
	for v := range views {
		ox, oy := r.Intn(w), r.Intn(h)
		view := []int32{int32(oy*w + ox)}
		for len(view) < viewLen {
			// A 21x21 window around the owner, wrapping at the edges.
			x := (ox + r.Intn(21) - 10 + w) % w
			y := (oy + r.Intn(21) - 10 + h) % h
			view = append(view, int32(y*w+x))
		}
		views[v] = view
	}
	dst := make([]float64, viewLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := views[i%nViews]
		RowDistances(s, dst, table, view, Row(table, 2, int(view[0])))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*viewLen), "ns/distance")
}

// The helpers below have no production caller. SumSquaredTo is the
// objective the medoid tests check Medoid against; the Manhattan space is
// tested only by its own tests.

// SumSquaredTo returns the sum of squared distances from x to every element
// of points.
func SumSquaredTo(s Space, x Point, points []Point) float64 {
	sum := 0.0
	for _, p := range points {
		d := s.Distance(x, p)
		sum += d * d
	}
	return sum
}

// Manhattan is the L1 metric over R^dim. It is a non-modular metric for the
// metric-axiom tests.
type Manhattan struct {
	dim int
}

var _ Space = Manhattan{}

// NewManhattan returns the L1 space of the given dimension.
func NewManhattan(dim int) Manhattan {
	if dim <= 0 {
		panic("space: NewManhattan requires dim > 0")
	}
	return Manhattan{dim: dim}
}

// Dim implements Space.
func (m Manhattan) Dim() int { return m.dim }

// Distance implements Space.
func (m Manhattan) Distance(a, b Point) float64 {
	checkDim(m.dim, a)
	checkDim(m.dim, b)
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum
}
