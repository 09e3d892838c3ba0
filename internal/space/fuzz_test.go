package space

import (
	"math"
	"testing"
)

// Fuzz targets for the torus geometry: the metric axioms the whole
// protocol stack leans on (Space interface contract), the wrap-around
// canonicalisation, and the grid/cell correspondence the evaluation
// scenario builds its failure regions from. Run the seed corpus with
// go test; explore with go test -fuzz=FuzzTorus... .

const fuzzEps = 1e-9

// sanitizeWidth maps arbitrary float input to a usable circumference.
func sanitizeWidth(w float64) float64 {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return 1
	}
	w = math.Abs(w)
	if w < 1e-3 {
		return 1e-3 + w
	}
	if w > 1e6 {
		return 1e6
	}
	return w
}

// sanitizeCoord maps arbitrary float input to a finite coordinate.
func sanitizeCoord(c float64) float64 {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return 0
	}
	return math.Mod(c, 1e9)
}

func FuzzTorusDistanceSymmetry(f *testing.F) {
	f.Add(80.0, 40.0, 1.0, 2.0, 70.0, 30.0)
	f.Add(1.0, 1.0, 0.0, 0.0, 0.5, 0.5)
	f.Add(320.0, 160.0, -5.0, 900.0, 319.9, 0.1)
	f.Fuzz(func(t *testing.T, w1, w2, ax, ay, bx, by float64) {
		tor := NewTorus(sanitizeWidth(w1), sanitizeWidth(w2))
		a := Point{sanitizeCoord(ax), sanitizeCoord(ay)}
		b := Point{sanitizeCoord(bx), sanitizeCoord(by)}

		dab, dba := tor.Distance(a, b), tor.Distance(b, a)
		if math.Abs(dab-dba) > fuzzEps*(1+dab) {
			t.Fatalf("asymmetric: d(a,b)=%v d(b,a)=%v (a=%v b=%v)", dab, dba, a, b)
		}
		if dab < 0 || math.IsNaN(dab) {
			t.Fatalf("invalid distance %v", dab)
		}
		if d := tor.Distance(a, a); d != 0 {
			t.Fatalf("d(a,a) = %v, want 0", d)
		}
		// No pair can be further apart than the half-circumference diagonal.
		bound := math.Hypot(tor.Width(0)/2, tor.Width(1)/2)
		if dab > bound*(1+fuzzEps) {
			t.Fatalf("d=%v exceeds half-diagonal %v", dab, bound)
		}
	})
}

func FuzzTorusTriangleInequality(f *testing.F) {
	f.Add(80.0, 40.0, 1.0, 2.0, 41.0, 20.0, 79.0, 39.0)
	f.Add(2.0, 3.0, 0.1, 0.1, 1.9, 2.9, 1.0, 1.5)
	f.Fuzz(func(t *testing.T, w1, w2, ax, ay, bx, by, cx, cy float64) {
		tor := NewTorus(sanitizeWidth(w1), sanitizeWidth(w2))
		a := Point{sanitizeCoord(ax), sanitizeCoord(ay)}
		b := Point{sanitizeCoord(bx), sanitizeCoord(by)}
		c := Point{sanitizeCoord(cx), sanitizeCoord(cy)}

		dac := tor.Distance(a, c)
		viaB := tor.Distance(a, b) + tor.Distance(b, c)
		if dac > viaB+fuzzEps*(1+viaB) {
			t.Fatalf("triangle violated: d(a,c)=%v > d(a,b)+d(b,c)=%v", dac, viaB)
		}
	})
}

func FuzzTorusWrapCanonical(f *testing.F) {
	f.Add(80.0, 40.0, -1.0, 41.5)
	f.Add(1.0, 1.0, 1e6, -1e6)
	f.Fuzz(func(t *testing.T, w1, w2, px, py float64) {
		tor := NewTorus(sanitizeWidth(w1), sanitizeWidth(w2))
		p := Point{sanitizeCoord(px), sanitizeCoord(py)}

		q := tor.Wrap(p)
		for i, c := range q {
			if c < 0 || c >= tor.Width(i) {
				t.Fatalf("Wrap out of range: %v (widths %v, %v)", q, tor.Width(0), tor.Width(1))
			}
		}
		// Wrapping is idempotent and distance-preserving: the wrapped
		// representative is metrically indistinguishable from the original.
		if !tor.Wrap(q).Equal(q) {
			t.Fatalf("Wrap not idempotent: %v -> %v", q, tor.Wrap(q))
		}
		if d := tor.Distance(p, q); d > fuzzEps*(1+math.Abs(p[0])+math.Abs(p[1])) {
			t.Fatalf("Wrap moved the point: d(p, Wrap(p)) = %v", d)
		}
	})
}

// FuzzRowDistances pins the ranking kernel to the Space it stands for:
// bit-identical to Torus.Distance on the inlined 2-D torus path — over
// canonical, negative and beyond-the-width coordinates, so both the
// common branch and the math.Mod branch run — and to s.Distance on the
// generic path (Euclidean, Hamming, a 3-D torus), for both row index
// types.
func FuzzRowDistances(f *testing.F) {
	f.Add(80.0, 40.0, 1.0, 2.0, 70.0, 30.0, 40.0, 20.0)
	f.Add(80.0, 40.0, -5.0, 900.0, 79.5, 0.5, 0.0, 39.0)
	f.Add(1.0, 3.0, 0.0, 0.0, 1.0, 3.0, 0.5, 1.5)
	f.Add(320.0, 160.0, -1e8, 5e8, 319.9, 0.1, -0.0, 160.0)
	// -0.0 deltas: the raw row and the mirrored canonical row are
	// (-0.0, -0.0) against a (+0, +0) target.
	f.Add(80.0, 40.0, math.Copysign(0, -1), math.Copysign(0, -1), 0.0, 0.0, 0.0, 0.0)
	// Half-width deltas against (0, 0): from the canonical row (40, 20) and
	// its mirror, and through math.Mod from the raw row (120, -60).
	f.Add(80.0, 40.0, 120.0, -60.0, 40.0, 20.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, w1, w2, ax, ay, bx, by, tx, ty float64) {
		w1, w2 = sanitizeWidth(w1), sanitizeWidth(w2)
		ax, ay, bx, by = sanitizeCoord(ax), sanitizeCoord(ay), sanitizeCoord(bx), sanitizeCoord(by)
		tx, ty = sanitizeCoord(tx), sanitizeCoord(ty)
		tor := NewTorus(w1, w2)
		c := tor.Wrap(Point{bx, by})
		pts := []Point{
			{ax, ay},                 // raw: negative or beyond the width
			c,                        // canonical
			{c[0] + w1, c[1] + 2*w2}, // one and two widths out
			{-c[0], -c[1]},           // mirrored negative
		}
		targets := []Point{{tx, ty}, tor.Wrap(Point{tx, ty}), c}
		check := func(s Space, pts []Point, targets []Point) {
			t.Helper()
			dim := s.Dim()
			table := make([]float64, 0, len(pts)*dim)
			for _, p := range pts {
				table = append(table, p...)
			}
			rows := []int{3, 0, 2, 1, 1}
			rows32 := []int32{3, 0, 2, 1, 1}
			dst := make([]float64, len(rows)+1)
			dst32 := make([]float64, len(rows))
			for _, tgt := range targets {
				dst[len(rows)] = -7
				RowDistances(s, dst, table, rows, tgt)
				RowDistances(s, dst32, table, rows32, tgt)
				if dst[len(rows)] != -7 {
					t.Fatalf("%T: RowDistances wrote past len(rows)", s)
				}
				for i, r := range rows {
					want := s.Distance(pts[r], tgt)
					if math.Float64bits(dst[i]) != math.Float64bits(want) ||
						math.Float64bits(dst32[i]) != math.Float64bits(want) {
						t.Fatalf("%T: row %v to %v: kernel %v / %v, Distance %v",
							s, pts[r], tgt, dst[i], dst32[i], want)
					}
				}
			}
		}
		check(tor, pts, targets)
		check(NewEuclidean(2), pts, targets)
		check(NewHamming(2), pts, append(targets, pts[1]))
		lift := func(ps []Point, z float64) []Point {
			out := make([]Point, len(ps))
			for i, p := range ps {
				out[i] = Point{p[0], p[1], z + float64(i)}
			}
			return out
		}
		check(NewTorus(w1, w2, w1+w2), lift(pts, ax), lift(targets, ty))
	})
}

func FuzzTorusGridCellInverse(f *testing.F) {
	f.Add(uint8(80), uint8(40), 1.0)
	f.Add(uint8(16), uint8(8), 2.5)
	f.Add(uint8(1), uint8(1), 0.25)
	f.Fuzz(func(t *testing.T, w8, h8 uint8, step float64) {
		w, h := int(w8%64)+1, int(h8%64)+1
		if math.IsNaN(step) || math.IsInf(step, 0) {
			step = 1
		}
		step = math.Abs(step)
		if step < 1e-3 || step > 1e3 {
			step = 1
		}

		pts := TorusGrid(w, h, step)
		if len(pts) != w*h {
			t.Fatalf("grid size %d, want %d", len(pts), w*h)
		}
		tor := TorusForGrid(w, h, step)
		for idx, p := range pts {
			// Row-major cell inverse: the point determines its grid cell,
			// and the cell determines its slice index.
			x := int(math.Round(p[0] / step))
			y := int(math.Round(p[1] / step))
			if got := y*w + x; got != idx {
				t.Fatalf("cell inverse broken: point %v at index %d maps to %d (x=%d y=%d)",
					p, idx, got, x, y)
			}
			// Every grid point is already canonical on its torus.
			if !tor.Wrap(p).Equal(p) {
				t.Fatalf("grid point %v not canonical on torus (%v x %v)",
					p, tor.Width(0), tor.Width(1))
			}
		}
		// Adjacent cells sit exactly one step apart (w > 1 needed for a
		// horizontal neighbour).
		if w > 1 {
			if d := tor.Distance(pts[0], pts[1]); math.Abs(d-step) > fuzzEps*step {
				t.Fatalf("grid spacing %v, want %v", d, step)
			}
		}
	})
}
