package space

import (
	"math"
	"testing"
)

// branchyWrapDelta is wrapDelta as it was written before the sign-free
// kernel: the magnitude of d taken by a branch on its sign. It is the
// reference the sign-free form must match bit for bit.
func branchyWrapDelta(d, w float64) float64 {
	if d < 0 {
		d = -d
	}
	if d >= w {
		d = math.Mod(d, w)
	}
	if d > w/2 {
		d = w - d
	}
	return d
}

// branchyTorus2RowDistances is the 2-D torus row loop written with
// branchyWrapDelta, in the operation order of the kernel it stands for.
func branchyTorus2RowDistances[I ~int | ~int32](w0, w1 float64, dst, table []float64, rows []I, tx, ty float64) {
	for i, r := range rows {
		o := 2 * int(r)
		dx := branchyWrapDelta(table[o]-tx, w0)
		dy := branchyWrapDelta(table[o+1]-ty, w1)
		sum := 0.0
		sum += dx * dx
		sum += dy * dy
		dst[i] = math.Sqrt(sum)
	}
}

// TestSignFreeKernelMatchesBranchy pins RowDistances and Torus.Distance to
// the branchy reference bit for bit, over the deltas where taking the
// magnitude could differ: negative, -0.0 (Abs gives +0.0, the branch keeps
// -0.0), exactly a half width either way, and coordinates negative or
// beyond the width on each axis, so both the common and the math.Mod
// paths run; for both row index types.
func TestSignFreeKernelMatchesBranchy(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, ws := range [][2]float64{{80, 40}, {1, 3}, {320, 160}, {0.7, 1e6}} {
		w0, w1 := ws[0], ws[1]
		coords := func(w float64) []float64 {
			return []float64{0, negZero, 1, w / 4, w / 2, -w / 2, w - 1e-9, w, -w, 1.5 * w, -1.5 * w, 3*w + w/2, -1e8, 5e8}
		}
		xs, ys := coords(w0), coords(w1)
		var pts []Point
		for _, x := range xs {
			pts = append(pts, Point{x, ys[0]}, Point{x, negZero}, Point{x, w1 / 2})
		}
		for _, y := range ys {
			pts = append(pts, Point{xs[0], y}, Point{negZero, y}, Point{w0 / 2, y})
		}
		table := make([]float64, 0, 2*len(pts))
		rows := make([]int, len(pts))
		rows32 := make([]int32, len(pts))
		for i, p := range pts {
			table = append(table, p...)
			rows[i], rows32[i] = len(pts)-1-i, int32(i)
		}
		tor := NewTorus(w0, w1)
		got := make([]float64, len(rows))
		got32 := make([]float64, len(rows))
		want := make([]float64, len(rows))
		want32 := make([]float64, len(rows))
		for _, tgt := range pts {
			RowDistances(tor, got, table, rows, tgt)
			RowDistances(tor, got32, table, rows32, tgt)
			branchyTorus2RowDistances(w0, w1, want, table, rows, tgt[0], tgt[1])
			branchyTorus2RowDistances(w0, w1, want32, table, rows32, tgt[0], tgt[1])
			for i := range rows {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
					math.Float64bits(got32[i]) != math.Float64bits(want32[i]) {
					t.Fatalf("torus %vx%v: rows %d/%d to %v: kernel %v / %v, branchy %v / %v",
						w0, w1, rows[i], rows32[i], tgt, got[i], got32[i], want[i], want32[i])
				}
			}
			for _, p := range pts {
				d := tor.Distance(p, tgt)
				ref := branchyTorusDistance(tor, p, tgt)
				if math.Float64bits(d) != math.Float64bits(ref) {
					t.Fatalf("torus %vx%v: Distance(%v, %v) = %v, branchy %v", w0, w1, p, tgt, d, ref)
				}
			}
		}
	}
}

// branchyTorusDistance is Torus.Distance written with branchyWrapDelta.
func branchyTorusDistance(t Torus, a, b Point) float64 {
	sum := 0.0
	for i := range a {
		d := branchyWrapDelta(a[i]-b[i], t.widths[i])
		sum += d * d
	}
	return math.Sqrt(sum)
}
