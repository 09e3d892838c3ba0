package space

import "math"

// Row returns row r of a flat table of stride dim — table[r*dim :
// (r+1)*dim] — as a capacity-capped Point view, so appending to it can
// never spill into the next row. It allocates nothing.
func Row(table []float64, dim, r int) Point {
	o := r * dim
	return Point(table[o : o+dim : o+dim])
}

// RowDistances sets dst[i] to s.Distance(row rows[i] of table, target) for
// every i, where table is a flat position table of stride s.Dim(): row r is
// table[r*dim : (r+1)*dim]. It is the ranking kernel of the gossip
// overlays, which evaluate tens of millions of candidate distances per
// large round against positions kept in one such table.
//
// On a 2-D Torus — the paper's space — the loop is specialised, with the
// wrap arithmetic written inline and math.Mod only on the rare
// out-of-domain branch; it performs Torus.Distance's operations in the same
// order, so every result is bit-identical to it. The magnitude of each
// delta is math.Abs, a sign-bit clear, not a test on the sign, and the
// shorter arc is min(d, w-d), not a test against the half width (see
// wrapDelta for what share of deltas that test took): gossip partners
// lie on every side of a node, so the sign test was a coin flip the
// predictor kept missing. Every other space calls
// s.Distance on a row view. dst must hold at least len(rows) entries; like
// Distance, it panics when target has the wrong dimension or a row lies
// outside the table.
func RowDistances[I ~int | ~int32](s Space, dst, table []float64, rows []I, target Point) {
	dim := s.Dim()
	checkDim(dim, target)
	dst = dst[:len(rows)]
	if t, ok := s.(Torus); ok && dim == 2 {
		torus2RowDistances(t.widths[0], t.widths[1], dst, table, rows, target[0], target[1])
		return
	}
	for i, r := range rows {
		dst[i] = s.Distance(Row(table, dim, int(r)), target)
	}
}

// torus2RowDistances is RowDistances on the torus of widths (w0, w1): the
// body of Torus.Distance with wrapDelta expanded for both coordinates.
func torus2RowDistances[I ~int | ~int32](w0, w1 float64, dst, table []float64, rows []I, tx, ty float64) {
	for i, r := range rows {
		o := 2 * int(r)
		row := table[o : o+2 : o+2]
		dx := math.Abs(row[0] - tx)
		if dx >= w0 {
			dx = math.Mod(dx, w0)
		}
		dx = min(dx, w0-dx)
		dy := math.Abs(row[1] - ty)
		if dy >= w1 {
			dy = math.Mod(dy, w1)
		}
		dy = min(dy, w1-dy)
		sum := 0.0
		// float64(x*y) rounds the product alone, so no GOARCH fuses it into the sum (scripts/nofma.sh).
		sum += float64(dx * dx)
		sum += float64(dy * dy)
		dst[i] = math.Sqrt(sum)
	}
}
