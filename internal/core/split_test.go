package core

import (
	"sort"
	"strings"
	"testing"

	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// fig5 reconstructs the configuration of the paper's Fig. 5: two nodes p
// (pos = c) and q (pos = e) with guests {a,b,c} and {d,e,f}. SPLIT_BASIC
// leaves the sub-optimal partition untouched (status quo), while
// SPLIT_ADVANCED finds the better partition {b,c,e,f} / {a,d}. The
// coordinates are chosen so that (b,d) is the unique diameter, a is
// closest to d, and the basic rule keeps every point where it is.
type fig5Config struct {
	a, b, c, d, e, f space.Point
	posP, posQ       space.Point
	all              []space.Point
	space            space.Space
}

func newFig5() fig5Config {
	cfg := fig5Config{
		a:     space.Point{1.8, 4.2},
		b:     space.Point{-0.5, -1.5},
		c:     space.Point{0, 0},
		d:     space.Point{2.2, 4.6},
		e:     space.Point{4, 0},
		f:     space.Point{4.2, -0.8},
		space: space.NewEuclidean(2),
	}
	cfg.posP, cfg.posQ = cfg.c, cfg.e
	cfg.all = []space.Point{cfg.a, cfg.b, cfg.c, cfg.d, cfg.e, cfg.f}
	return cfg
}

// splitPts runs Split without identity tracking and copies the partitions
// out of the splitter's scratch, so tests can hold several results at once.
func splitPts(sp *Splitter, pts []space.Point, posP, posQ space.Point) (toP, toQ []space.Point) {
	a, b, _, _ := sp.Split(pts, nil, posP, posQ)
	return append([]space.Point{}, a...), append([]space.Point{}, b...)
}

func pointSet(pts []space.Point) string {
	keys := make([]string, len(pts))
	for i, p := range pts {
		keys[i] = p.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

func sameSet(a, b []space.Point) bool { return pointSet(a) == pointSet(b) }

func TestFig5BasicStatusQuo(t *testing.T) {
	cfg := newFig5()
	sp := &Splitter{Kind: SplitBasic, Space: cfg.space}
	toP, toQ := splitPts(sp, cfg.all, cfg.posP, cfg.posQ)
	if !sameSet(toP, []space.Point{cfg.a, cfg.b, cfg.c}) {
		t.Fatalf("basic split toP = %v, want {a,b,c}", toP)
	}
	if !sameSet(toQ, []space.Point{cfg.d, cfg.e, cfg.f}) {
		t.Fatalf("basic split toQ = %v, want {d,e,f}", toQ)
	}
}

func TestFig5AdvancedImproves(t *testing.T) {
	cfg := newFig5()
	sp := &Splitter{Kind: SplitAdvanced, Space: cfg.space}
	toP, toQ := splitPts(sp, cfg.all, cfg.posP, cfg.posQ)
	if !sameSet(toP, []space.Point{cfg.b, cfg.c, cfg.e, cfg.f}) {
		t.Fatalf("advanced split toP = %v, want {b,c,e,f}", toP)
	}
	if !sameSet(toQ, []space.Point{cfg.a, cfg.d}) {
		t.Fatalf("advanced split toQ = %v, want {a,d}", toQ)
	}
	// The paper's objective: the advanced partition has lower total
	// within-cluster scatter than the basic one.
	basicScatter := space.Scatter(cfg.space, []space.Point{cfg.a, cfg.b, cfg.c}) +
		space.Scatter(cfg.space, []space.Point{cfg.d, cfg.e, cfg.f})
	advScatter := space.Scatter(cfg.space, toP) + space.Scatter(cfg.space, toQ)
	if advScatter >= basicScatter {
		t.Fatalf("advanced scatter %v not better than basic %v", advScatter, basicScatter)
	}
}

func TestFig5PDPartition(t *testing.T) {
	cfg := newFig5()
	sp := &Splitter{Kind: SplitPD, Space: cfg.space}
	toP, toQ := splitPts(sp, cfg.all, cfg.posP, cfg.posQ)
	clusterAD := []space.Point{cfg.a, cfg.d}
	clusterBCEF := []space.Point{cfg.b, cfg.c, cfg.e, cfg.f}
	ok := (sameSet(toP, clusterAD) && sameSet(toQ, clusterBCEF)) ||
		(sameSet(toP, clusterBCEF) && sameSet(toQ, clusterAD))
	if !ok {
		t.Fatalf("PD split = %v / %v, want clusters {a,d} and {b,c,e,f}", toP, toQ)
	}
}

func TestMDOrientationMinimisesDisplacement(t *testing.T) {
	// Two tight clusters; posP sits on cluster B, posQ on cluster A. MD
	// must give B to p and A to q even though basic assignment's natural
	// labelling is the same; flip positions to force a swap.
	s := space.NewEuclidean(1)
	clusterA := []space.Point{{0}, {0.1}, {0.2}}
	clusterB := []space.Point{{10}, {10.1}, {10.2}}
	all := append(append([]space.Point{}, clusterA...), clusterB...)
	sp := &Splitter{Kind: SplitAdvanced, Space: s}

	toP, toQ := splitPts(sp, all, space.Point{10}, space.Point{0})
	if !sameSet(toP, clusterB) || !sameSet(toQ, clusterA) {
		t.Fatalf("MD did not keep nodes near their clusters: toP=%v toQ=%v", toP, toQ)
	}
	toP, toQ = splitPts(sp, all, space.Point{0}, space.Point{10})
	if !sameSet(toP, clusterA) || !sameSet(toQ, clusterB) {
		t.Fatalf("MD mis-oriented: toP=%v toQ=%v", toP, toQ)
	}
}

func TestSplitMDAloneUsesBasicPartition(t *testing.T) {
	// With positions centred on the two clusters, MD-alone equals basic.
	s := space.NewEuclidean(1)
	all := []space.Point{{0}, {1}, {9}, {10}}
	md := &Splitter{Kind: SplitMD, Space: s}
	toP, toQ := splitPts(md, all, space.Point{0.5}, space.Point{9.5})
	if !sameSet(toP, []space.Point{{0}, {1}}) || !sameSet(toQ, []space.Point{{9}, {10}}) {
		t.Fatalf("MD split = %v / %v", toP, toQ)
	}
	// With swapped positions, MD swaps the allocation (basic would too
	// here, but MD must in particular not double-swap).
	toP, toQ = splitPts(md, all, space.Point{9.5}, space.Point{0.5})
	if !sameSet(toP, []space.Point{{9}, {10}}) || !sameSet(toQ, []space.Point{{0}, {1}}) {
		t.Fatalf("MD swapped split = %v / %v", toP, toQ)
	}
}

func TestSplitEdgeCases(t *testing.T) {
	s := space.NewEuclidean(2)
	posP, posQ := space.Point{0, 0}, space.Point{1, 0}
	for _, kind := range []SplitKind{SplitBasic, SplitPD, SplitMD, SplitAdvanced} {
		sp := &Splitter{Kind: kind, Space: s}
		toP, toQ := splitPts(sp, nil, posP, posQ)
		if len(toP) != 0 || len(toQ) != 0 {
			t.Errorf("%v: empty input produced %v / %v", kind, toP, toQ)
		}
		single := []space.Point{{0.1, 0}}
		toP, toQ = splitPts(sp, single, posP, posQ)
		if len(toP)+len(toQ) != 1 {
			t.Errorf("%v: single point lost or duplicated: %v / %v", kind, toP, toQ)
		}
	}
}

func TestSplitIdenticalPoints(t *testing.T) {
	// All points identical: the diameter is degenerate (u == v); nothing
	// may be lost and the split must not panic.
	s := space.NewEuclidean(2)
	pts := []space.Point{{1, 1}, {1, 1}, {1, 1}}
	for _, kind := range []SplitKind{SplitBasic, SplitPD, SplitMD, SplitAdvanced} {
		sp := &Splitter{Kind: kind, Space: s}
		toP, toQ := splitPts(sp, pts, space.Point{0, 0}, space.Point{2, 2})
		if len(toP)+len(toQ) != 3 {
			t.Errorf("%v: identical points lost: %d+%d", kind, len(toP), len(toQ))
		}
	}
}

func TestSplitPartitionProperty(t *testing.T) {
	// Property: for every strategy, the output is a partition of the input
	// (no point lost, none duplicated), on random torus point sets.
	tor := space.NewTorus(40, 40)
	rng := xrand.New(77)
	for _, kind := range []SplitKind{SplitBasic, SplitPD, SplitMD, SplitAdvanced} {
		sp := &Splitter{Kind: kind, Space: tor, Rng: rng.Split()}
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(40)
			pts := make([]space.Point, n)
			for i := range pts {
				pts[i] = space.Point{40 * rng.Float64(), 40 * rng.Float64()}
			}
			posP := space.Point{40 * rng.Float64(), 40 * rng.Float64()}
			posQ := space.Point{40 * rng.Float64(), 40 * rng.Float64()}
			toP, toQ := splitPts(sp, pts, posP, posQ)
			if len(toP)+len(toQ) != n {
				t.Fatalf("%v trial %d: %d points in, %d out", kind, trial, n, len(toP)+len(toQ))
			}
			counts := map[string]int{}
			for _, p := range pts {
				counts[p.Key()]++
			}
			for _, p := range append(append([]space.Point{}, toP...), toQ...) {
				counts[p.Key()]--
			}
			for k, c := range counts {
				if c != 0 {
					t.Fatalf("%v trial %d: point multiset changed (key %q count %d)", kind, trial, k, c)
				}
			}
		}
	}
}

func TestSplitLargeSetUsesSampledDiameter(t *testing.T) {
	// Over the exact-search threshold, a sampled diameter must still give a
	// valid partition.
	s := space.NewEuclidean(2)
	rng := xrand.New(99)
	pts := make([]space.Point, 200)
	for i := range pts {
		pts[i] = space.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	sp := &Splitter{Kind: SplitAdvanced, Space: s, Rng: rng}
	toP, toQ := splitPts(sp, pts, space.Point{0, 0}, space.Point{100, 100})
	if len(toP)+len(toQ) != 200 || len(toP) == 0 || len(toQ) == 0 {
		t.Fatalf("sampled split sizes %d/%d", len(toP), len(toQ))
	}
}

func TestSplitKindString(t *testing.T) {
	cases := map[SplitKind]string{
		SplitBasic: "basic", SplitPD: "pd", SplitMD: "md", SplitAdvanced: "advanced",
		SplitKind(99): "SplitKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestParseSplitKind(t *testing.T) {
	for _, s := range []string{"basic", "pd", "md", "advanced", "pd+md"} {
		if _, err := ParseSplitKind(s); err != nil {
			t.Errorf("ParseSplitKind(%q) failed: %v", s, err)
		}
	}
	if _, err := ParseSplitKind("nope"); err == nil {
		t.Error("ParseSplitKind accepted garbage")
	}
	if k, _ := ParseSplitKind("advanced"); k != SplitAdvanced {
		t.Error("round-trip mismatch")
	}
}
