package experiments

import (
	"sync"
	"testing"

	"polystyrene/internal/scenario"
)

// These tests run reshaping sweeps through the grid's cell fan-out
// directly, outside any spec, to pin that concurrent cells share no
// state and that the worker and memory budgets compose with exchange
// parallelism.

// sweepCell is one reshaping measurement of a small Table II-style sweep.
// Its seed is derived through scenario.CellSeed from everything but the
// exchange level, so cells that differ only in exchange parallelism >= 1
// must produce the same outcome.
type sweepCell struct{ w, h, k, exchange, rep int }

func (c sweepCell) config() scenario.Config {
	return scenario.Config{
		Seed:                scenario.CellSeed(5, "sweep", uint64(c.w), uint64(c.h), uint64(c.k), uint64(c.rep)),
		W:                   c.w,
		H:                   c.h,
		Polystyrene:         true,
		K:                   c.k,
		ExchangeParallelism: c.exchange,
	}
}

// runSweep measures every cell with at most par cells in flight and folds
// the outcomes in cell order. peak is the most cells seen in flight at once.
func runSweep(t *testing.T, cells []sweepCell, par int) (outs []scenario.ReshapingOutcome, peak int) {
	t.Helper()
	outs = make([]scenario.ReshapingOutcome, len(cells))
	var mu sync.Mutex
	inFlight := 0
	err := fanOut(par, len(cells), func(i int) error {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		defer func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
		o, err := scenario.MeasureReshaping(cells[i].config(), 8, 30)
		outs[i] = o
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, peak
}

// sameOutcomes fails the test at the first cell whose outcome differs
// from the reference.
func sameOutcomes(t *testing.T, what string, cells []sweepCell, got, want []scenario.ReshapingOutcome) {
	t.Helper()
	for i := range cells {
		if got[i] != want[i] {
			t.Fatalf("%s: cell %+v outcome %+v, want %+v", what, cells[i], got[i], want[i])
		}
	}
}

// TestSweepParallelMatchesSerial pins that concurrent cells share no
// state: cells of two sizes and two replication factors, run three at a
// time, twice over, reproduce the serial outcomes exactly.
func TestSweepParallelMatchesSerial(t *testing.T) {
	var cells []sweepCell
	for _, size := range [][2]int{{16, 8}, {20, 10}} {
		for _, k := range []int{2, 4} {
			for rep := 0; rep < 2; rep++ {
				cells = append(cells, sweepCell{w: size[0], h: size[1], k: k, rep: rep})
			}
		}
	}
	serial, _ := runSweep(t, cells, 1)
	for pass := 0; pass < 2; pass++ {
		par, _ := runSweep(t, cells, 3)
		sameOutcomes(t, "parallel", cells, par, serial)
	}
}

// TestRunOptsComposeExchangeParallelism pins that job parallelism composes
// with exchange parallelism: cells at exchange levels 1, 2 and 4, three
// in flight at once, each reproduce the serial outcome at level 1 — the engine's contract that levels >= 1 share one
// trajectory — and sequential (level 0) cells reproduce their own serial
// reference under the same fan-out.
func TestRunOptsComposeExchangeParallelism(t *testing.T) {
	var cells, refCells []sweepCell
	for _, k := range []int{2, 4} {
		for rep := 0; rep < 2; rep++ {
			for _, w := range []int{0, 1, 2, 4} {
				cells = append(cells, sweepCell{w: 16, h: 8, k: k, exchange: w, rep: rep})
				refCells = append(refCells, sweepCell{w: 16, h: 8, k: k, exchange: min(w, 1), rep: rep})
			}
		}
	}
	want, _ := runSweep(t, refCells, 1)
	got, peak := runSweep(t, cells, 3)
	sameOutcomes(t, "composed", cells, got, want)
	if peak > 3 {
		t.Errorf("%d cells in flight, job budget 3", peak)
	}
}

// TestRunOptsMemBudgetBoundsParallelism pins the memory bound end to end:
// a budget of two and a half cells' estimated footprint caps an
// eight-worker fan-out at two cells in flight (one cell when the budget
// is below one footprint), and the bounded sweep's outcomes equal the
// serial ones.
func TestRunOptsMemBudgetBoundsParallelism(t *testing.T) {
	var cells []sweepCell
	for _, k := range []int{2, 4} {
		for rep := 0; rep < 3; rep++ {
			cells = append(cells, sweepCell{w: 16, h: 8, k: k, rep: rep})
		}
	}
	job := scenario.Config{W: 16, H: 8, Polystyrene: true, K: 4}.EstimatedFootprintBytes()
	if job <= 0 {
		t.Fatalf("estimated footprint %d, want > 0", job)
	}
	if par := (RunOpts{Parallelism: 8, MemBudgetBytes: job / 2}).parallelism(len(cells), job); par != 1 {
		t.Errorf("sub-cell budget allows %d cells in flight, want 1", par)
	}
	par := RunOpts{Parallelism: 8, MemBudgetBytes: 2*job + job/2}.parallelism(len(cells), job)
	if par != 2 {
		t.Fatalf("budget of 2.5 cells allows %d cells in flight, want 2", par)
	}
	want, _ := runSweep(t, cells, 1)
	got, peak := runSweep(t, cells, par)
	sameOutcomes(t, "memory-bounded", cells, got, want)
	if peak > par {
		t.Errorf("%d cells in flight under a %d-cell memory budget", peak, par)
	}
}
