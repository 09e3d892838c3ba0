package metrics

import (
	"math"
	"testing"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// fakeSystem is a hand-built System for exact metric assertions.
type fakeSystem struct {
	spc       space.Space
	live      []sim.NodeID
	positions map[sim.NodeID]space.Point
	guests    map[sim.NodeID][]space.Point
	ghosts    map[sim.NodeID]int
	neighbors map[sim.NodeID][]sim.NodeID
}

func (f *fakeSystem) Space() space.Space { return f.spc }
func (f *fakeSystem) Live() []sim.NodeID { return f.live }
func (f *fakeSystem) Alive(id sim.NodeID) bool {
	for _, l := range f.live {
		if l == id {
			return true
		}
	}
	return false
}
func (f *fakeSystem) Position(id sim.NodeID) space.Point { return f.positions[id] }
func (f *fakeSystem) Guests(id sim.NodeID) []space.Point { return f.guests[id] }
func (f *fakeSystem) NumGuests(id sim.NodeID) int        { return len(f.guests[id]) }
func (f *fakeSystem) NumGhosts(id sim.NodeID) int        { return f.ghosts[id] }
func (f *fakeSystem) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	nbs := f.neighbors[id]
	if k < len(nbs) {
		nbs = nbs[:k]
	}
	for _, nb := range nbs {
		if !yield(nb) {
			return
		}
	}
}

func line3() *fakeSystem {
	// Three nodes on a line at 0, 1, 3; each hosting its own point.
	return &fakeSystem{
		spc:  space.NewEuclidean(1),
		live: []sim.NodeID{0, 1, 2},
		positions: map[sim.NodeID]space.Point{
			0: {0}, 1: {1}, 2: {3},
		},
		guests: map[sim.NodeID][]space.Point{
			0: {{0}}, 1: {{1}}, 2: {{3}},
		},
		ghosts: map[sim.NodeID]int{0: 2, 1: 0, 2: 1},
		neighbors: map[sim.NodeID][]sim.NodeID{
			0: {1}, 1: {0}, 2: {1},
		},
	}
}

func TestProximity(t *testing.T) {
	sys := line3()
	// pairs: 0→1 (1), 1→0 (1), 2→1 (2); mean = 4/3.
	if got := Proximity(sys, 1); math.Abs(got-4.0/3) > 1e-9 {
		t.Fatalf("Proximity = %v, want 4/3", got)
	}
}

func TestProximityEmpty(t *testing.T) {
	sys := &fakeSystem{spc: space.NewEuclidean(1)}
	if got := Proximity(sys, 4); got != 0 {
		t.Fatalf("Proximity(empty) = %v", got)
	}
}

func TestHomogeneityPerfect(t *testing.T) {
	sys := line3()
	pts := []space.Point{{0}, {1}, {3}}
	if got := Homogeneity(sys, pts); got != 0 {
		t.Fatalf("Homogeneity = %v, want 0 (every point hosted in place)", got)
	}
}

func TestHomogeneityDisplacedHolder(t *testing.T) {
	sys := line3()
	// Node 2 hosts point {3} but sits at position {5}: contribution 2.
	sys.positions[2] = space.Point{5}
	pts := []space.Point{{0}, {1}, {3}}
	if got := Homogeneity(sys, pts); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("Homogeneity = %v, want 2/3", got)
	}
}

func TestHomogeneityLostPointFallsBack(t *testing.T) {
	sys := line3()
	// Point {10} is hosted by nobody: nearest node overall is node 2 at 3,
	// so it contributes 7.
	pts := []space.Point{{0}, {1}, {3}, {10}}
	if got := Homogeneity(sys, pts); math.Abs(got-7.0/4) > 1e-9 {
		t.Fatalf("Homogeneity = %v, want 7/4", got)
	}
}

func TestHomogeneityPicksNearestHolder(t *testing.T) {
	sys := line3()
	// Point {1} hosted by node 1 (pos 1, d=0) and node 2 (pos 3, d=2):
	// nearest holder wins.
	sys.guests[2] = append(sys.guests[2], space.Point{1})
	pts := []space.Point{{1}}
	if got := Homogeneity(sys, pts); got != 0 {
		t.Fatalf("Homogeneity = %v, want 0 (nearest holder)", got)
	}
}

func TestHomogeneityEmptyInputs(t *testing.T) {
	if got := Homogeneity(line3(), nil); got != 0 {
		t.Fatalf("Homogeneity(no points) = %v", got)
	}
	empty := &fakeSystem{spc: space.NewEuclidean(1)}
	if got := Homogeneity(empty, []space.Point{{0}}); got != 0 {
		t.Fatalf("Homogeneity(no nodes) = %v", got)
	}
}

func TestReferenceHomogeneityPaperValues(t *testing.T) {
	// Paper Sec. IV-A: H^3200_{40x80} = 1/2 and H^1600_{40x80} = sqrt(2)/2.
	if got := ReferenceHomogeneity(3200, 3200); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("H(3200,3200) = %v, want 0.5", got)
	}
	if got := ReferenceHomogeneity(3200, 1600); math.Abs(got-math.Sqrt2/2) > 1e-9 {
		t.Fatalf("H(3200,1600) = %v, want sqrt(2)/2", got)
	}
	if got := ReferenceHomogeneity(3200, 0); !math.IsInf(got, 1) {
		t.Fatalf("H(·,0) = %v, want +Inf", got)
	}
}

func TestDataPointsPerNode(t *testing.T) {
	sys := line3()
	// guests: 1+1+1, ghosts: 2+0+1 => 6/3 = 2.
	if got := DataPointsPerNode(sys); math.Abs(got-2) > 1e-9 {
		t.Fatalf("DataPointsPerNode = %v, want 2", got)
	}
	empty := &fakeSystem{spc: space.NewEuclidean(1)}
	if got := DataPointsPerNode(empty); got != 0 {
		t.Fatalf("DataPointsPerNode(empty) = %v", got)
	}
}

func TestReliability(t *testing.T) {
	sys := line3()
	pts := []space.Point{{0}, {1}, {3}, {99}}
	if got := Reliability(sys, pts); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("Reliability = %v, want 0.75", got)
	}
	if got := Reliability(sys, nil); got != 1 {
		t.Fatalf("Reliability(no points) = %v, want 1", got)
	}
}

func TestMessageCostPerNode(t *testing.T) {
	e := sim.New(1, &charging{})
	e.AddNodes(4)
	e.RunRounds(1)
	if got := MessageCostPerNode(e, 0); math.Abs(got-10) > 1e-9 {
		t.Fatalf("MessageCostPerNode = %v, want 10", got)
	}
}

type charging struct{}

func (charging) Name() string                     { return "c" }
func (charging) InitNode(*sim.Engine, sim.NodeID) {}
func (charging) Step(e *sim.Engine, _ sim.NodeID) { e.Charge(10) }

func TestAccumulator(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if math.Abs(a.Mean()-5) > 1e-9 {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-9 {
		t.Fatalf("Variance = %v, want %v", a.Variance(), 32.0/7)
	}
	if a.CI95() <= 0 {
		t.Fatalf("CI95 = %v, want > 0", a.CI95())
	}
}

func TestAccumulatorDegenerate(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.CI95() != 0 {
		t.Fatal("empty accumulator not zero-valued")
	}
	a.Add(3)
	if a.Variance() != 0 || a.CI95() != 0 {
		t.Fatal("single observation should have no spread")
	}
}

func TestTCritical(t *testing.T) {
	cases := map[int]float64{1: 12.706, 24: 2.064, 100: 1.99, 1000: 1.96}
	for df, want := range cases {
		if got := tCritical95(df); math.Abs(got-want) > 1e-6 {
			t.Errorf("t(%d) = %v, want %v", df, got, want)
		}
	}
	if !math.IsInf(tCritical95(0), 1) {
		t.Error("t(0) should be +Inf")
	}
	if got := tCritical95(35); got != 2.03 {
		t.Errorf("t(35) = %v, want 2.03", got)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	widths := []float64{}
	for _, n := range []int{5, 25, 100} {
		var a Accumulator
		for i := 0; i < n; i++ {
			a.Add(float64(i % 10))
		}
		widths = append(widths, a.CI95())
	}
	if !(widths[0] > widths[1] && widths[1] > widths[2]) {
		t.Fatalf("CI95 did not shrink with n: %v", widths)
	}
}
