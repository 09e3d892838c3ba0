package space

// Property-based tests (testing/quick) for the geometric primitives: these
// complement the example-based tests with randomly generated inputs and
// machine-checked invariants.

import (
	"math"
	"testing"
	"testing/quick"

	"polystyrene/internal/xrand"
)

// genPoints converts raw quick-generated bytes into a point cloud on the
// 40x40 torus (bytes give a deterministic, shrink-friendly encoding).
func genPoints(raw []byte) []Point {
	pts := make([]Point, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		pts = append(pts, Point{float64(raw[i]) / 255 * 40, float64(raw[i+1]) / 255 * 40})
	}
	return pts
}

func TestQuickKNearestAgainstSort(t *testing.T) {
	tor := NewTorus(40, 40)
	f := func(raw []byte, qx, qy uint8, kRaw uint8) bool {
		pts := genPoints(raw)
		if len(pts) == 0 {
			return true
		}
		q := Point{float64(qx) / 255 * 40, float64(qy) / 255 * 40}
		k := 1 + int(kRaw)%8
		got := KNearest(tor, q, pts, k)
		// Brute force: the i-th returned distance must equal the i-th
		// smallest distance overall.
		dists := make([]float64, len(pts))
		for i, p := range pts {
			dists[i] = tor.Distance(q, p)
		}
		for i := 1; i < len(dists); i++ {
			for j := i; j > 0 && dists[j] < dists[j-1]; j-- {
				dists[j], dists[j-1] = dists[j-1], dists[j]
			}
		}
		for i, idx := range got {
			if math.Abs(tor.Distance(q, pts[idx])-dists[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickMedoidIsArgmin(t *testing.T) {
	tor := NewTorus(40, 40)
	f := func(raw []byte) bool {
		pts := genPoints(raw)
		if len(pts) == 0 {
			return Medoid(tor, pts) == -1
		}
		m := Medoid(tor, pts)
		mCost := SumSquaredTo(tor, pts[m], pts)
		for i := range pts {
			if SumSquaredTo(tor, pts[i], pts) < mCost-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDiameterIsMaximal(t *testing.T) {
	tor := NewTorus(40, 40)
	f := func(raw []byte) bool {
		pts := genPoints(raw)
		if len(pts) < 2 {
			i, j, d := Diameter(tor, pts)
			return i == -1 && j == -1 && d == 0
		}
		i, j, d := Diameter(tor, pts)
		if i < 0 || j < 0 || i == j {
			return false
		}
		for a := range pts {
			for b := a + 1; b < len(pts); b++ {
				if tor.Distance(pts[a], pts[b]) > d+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickSampledDiameterNeverExceedsExact(t *testing.T) {
	tor := NewTorus(40, 40)
	rng := xrand.New(5150)
	f := func(raw []byte) bool {
		pts := genPoints(raw)
		if len(pts) < 2 {
			return true
		}
		_, _, exact := Diameter(tor, pts)
		_, _, sampled := DiameterSampled(tor, pts, 20, rng)
		return sampled <= exact+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickWrapIdempotentAndDistancePreserving(t *testing.T) {
	tor := NewTorus(80, 40)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		// Keep magnitudes sane to avoid float cancellation artefacts.
		x = math.Mod(x, 1e6)
		y = math.Mod(y, 1e6)
		p := Point{x, y}
		w1 := tor.Wrap(p)
		w2 := tor.Wrap(w1)
		if !w1.Equal(w2) {
			return false
		}
		return w1[0] >= 0 && w1[0] < 80 && w1[1] >= 0 && w1[1] < 40
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
