package serve

import (
	"math"
	"slices"
	"testing"
)

// table is a hand-built neighbour-row table: node i's row is rows[i] and
// its distance to the target is dists[i].
type table struct {
	rows  [][]int32
	dists []float64
}

func (tb table) descend(start int) (dest int, d float64, hops int, converged bool) {
	dist := func(i int) float64 { return tb.dists[i] }
	row := func(i int) []int32 { return tb.rows[i] }
	return Descend(start, dist(start), dist, row)
}

func TestDescendOnRowTable(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name     string
		tb       table
		wantDest int
		wantHops int
	}{
		{"local minimum at the start", table{
			rows:  [][]int32{{1, 2}, {0}, {0}},
			dists: []float64{1, 2, 3},
		}, 0, 0},
		{"an equal neighbour is no improvement", table{
			rows:  [][]int32{{1}, {0}},
			dists: []float64{2, 2},
		}, 0, 0},
		{"first in row wins a tie", table{
			rows:  [][]int32{{3, 1, 2}, {}, {}, {}},
			dists: []float64{5, 3, 3, 4},
		}, 1, 1},
		{"strictly closest wins over row order", table{
			rows:  [][]int32{{1, 2}, {}, {}},
			dists: []float64{5, 3, 1},
		}, 2, 1},
		{"a -1 pad ends the row", table{
			rows:  [][]int32{{1, -1, 2}, {-1, 2}, {}},
			dists: []float64{5, 4, 0},
		}, 1, 1},
		{"a +Inf neighbour is never taken", table{
			rows:  [][]int32{{1, 2}, {}, {}},
			dists: []float64{math.MaxFloat64, inf, inf},
		}, 0, 0},
		{"walks a chain to its end", table{
			rows:  [][]int32{{1}, {0, 2}, {1, 3}, {2}},
			dists: []float64{3, 2, 1, 0},
		}, 3, 3},
	} {
		dest, d, hops, converged := tc.tb.descend(0)
		if dest != tc.wantDest || hops != tc.wantHops || !converged {
			t.Errorf("%s: Descend = (dest %d, hops %d, converged %v), want (%d, %d, true)",
				tc.name, dest, hops, converged, tc.wantDest, tc.wantHops)
		}
		if d != tc.tb.dists[dest] {
			t.Errorf("%s: distance %v, want node %d's %v", tc.name, d, dest, tc.tb.dists[dest])
		}
	}
}

func TestDescendStopsAtHopBudget(t *testing.T) {
	// A cycle-free chain longer than the budget: every hop improves.
	const n = lookupMaxHops + 10
	tb := table{rows: make([][]int32, n), dists: make([]float64, n)}
	for i := range n {
		tb.dists[i] = float64(n - i)
		if i+1 < n {
			tb.rows[i] = []int32{int32(i + 1)}
		}
	}
	dest, d, hops, converged := tb.descend(0)
	if converged || hops != lookupMaxHops || dest != lookupMaxHops {
		t.Fatalf("Descend = (dest %d, hops %d, converged %v), want (%d, %d, false)",
			dest, hops, converged, lookupMaxHops, lookupMaxHops)
	}
	if d != tb.dists[dest] {
		t.Fatalf("distance %v, want %v", d, tb.dists[dest])
	}
}

func TestSeedDescentStridesAndKeepsTheLowestIndex(t *testing.T) {
	for _, tc := range []struct {
		n      int
		probed []int // the indexes SeedDescent must read, in order
	}{
		{1, []int{0}},
		{5, []int{0, 1, 2, 3, 4}},
		{20, []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}},
		{805, []int{0, 100, 200, 300, 400, 500, 600, 700, 800}},
	} {
		var probed []int
		dist := func(i int) float64 {
			probed = append(probed, i)
			return 1 // all tied: the lowest index must win
		}
		start, d := SeedDescent(tc.n, dist)
		if start != 0 || d != 1 {
			t.Errorf("n=%d: SeedDescent = (%d, %v), want (0, 1)", tc.n, start, d)
		}
		if !slices.Equal(probed, tc.probed) {
			t.Errorf("n=%d: probed %v, want %v", tc.n, probed, tc.probed)
		}
	}
	// The closest probe wins; an unprobed index never does.
	start, d := SeedDescent(20, func(i int) float64 { return math.Abs(float64(i) - 7) })
	if start != 6 || d != 1 {
		t.Fatalf("SeedDescent = (%d, %v), want (6, 1)", start, d)
	}
}
