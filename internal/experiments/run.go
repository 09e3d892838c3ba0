package experiments

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"

	"polystyrene/internal/core"
	"polystyrene/internal/scenario"
	"polystyrene/internal/shape"
	"polystyrene/internal/trace"
)

// CellResult is the measured outcome of one grid cell: the final-state
// summary columns of grid.csv plus the full per-round series (the cell
// CSV) and a fingerprint of that series for determinism audits.
type CellResult struct {
	Cell Cell
	// FinalHomogeneity and ReferenceH are h and H after the last round
	// (for a reshape cell: at the round it stopped); ShapeHeld reports
	// h < H (the shape survived, Sec. IV-A criterion — for a reshape cell,
	// that it reshaped within the horizon).
	FinalHomogeneity float64
	ReferenceH       float64
	ShapeHeld        bool
	// ReliabilityPct is the surviving fraction of original data points,
	// in percent (Table II measure).
	ReliabilityPct float64
	// ReshapeRounds is a reshape cell's reshaping time (Table II): rounds
	// from the catastrophe until h < H, or the budget + 1 when never
	// reached. Zero for every other scenario.
	ReshapeRounds int
	// Fingerprint hashes the entire per-round series (FNV-1a over the
	// raw float bits plus the live-node trace) — for a reshape cell, its
	// outcome; two cells ran the same trajectory iff their fingerprints
	// match.
	Fingerprint uint64
	// Series is the per-round metric record; nil for a reshape cell.
	Series *scenario.Result
}

// fnv1a is an FNV-1a digest fed one little-endian uint64 at a time.
type fnv1a uint64

func newFNV1a() fnv1a { return 14695981039346656037 }

func (h *fnv1a) mix(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv1a((v >> (8 * i)) & 0xff)
		*h *= 1099511628211
	}
}

// Fingerprint digests a per-round metric record with FNV-1a over the
// float bit patterns and live counts: byte-identical trajectories — and
// only those — collide. This is the identity the grid's exchange axis is
// audited against.
func Fingerprint(r *scenario.Result) uint64 {
	h := newFNV1a()
	for _, col := range [][]float64{r.Homogeneity, r.Proximity, r.DataPoints, r.MsgCost} {
		h.mix(uint64(len(col)))
		for _, v := range col {
			h.mix(math.Float64bits(v))
		}
	}
	h.mix(uint64(len(r.LiveNodes)))
	for _, v := range r.LiveNodes {
		h.mix(uint64(v))
	}
	return uint64(h)
}

// outcomeFingerprint digests a reshaping outcome — rounds, reached, and
// the bit patterns of reliability, h and H — the reshape cell's stand-in
// for a series fingerprint in the determinism audit.
func outcomeFingerprint(o scenario.ReshapingOutcome) uint64 {
	h := newFNV1a()
	reached := uint64(0)
	if o.Reached {
		reached = 1
	}
	for _, v := range []uint64{uint64(o.Rounds), reached,
		math.Float64bits(o.Reliability), math.Float64bits(o.Homogeneity), math.Float64bits(o.ReferenceH)} {
		h.mix(v)
	}
	return uint64(h)
}

// BuildSchedule materializes the cell's availability schedule, nil for
// the scripted "paper" and "reshape" scenarios. The schedule is a pure
// function of (scenario spec, grid size, ScheduleSeed) — deliberately
// independent of K, detector and exchange parallelism, so every protocol
// variant in one (size, rep) slice faces the exact same trace.
func BuildSchedule(cell Cell) (*trace.Schedule, error) {
	n := cell.W * cell.H
	sp := cell.Scenario
	switch sp.Name {
	case "paper", "reshape":
		return nil, nil
	case "churn":
		// Generate the window's churn from round 0, then shift it to start
		// at fail_at; the default window (0, rounds) shifts by nothing.
		s, err := trace.UniformChurn(n, sp.RejoinAt-sp.FailAt, sp.Rate, cell.ScheduleSeed)
		if err != nil {
			return nil, err
		}
		for i := range s.Events {
			s.Events[i].Round += sp.FailAt
		}
		return s, nil
	case "flash-crowd":
		return trace.FlashCrowd(n, sp.FailAt, int(sp.Crowd*float64(n)), sp.RejoinAt)
	case "rolling-partition":
		pos := shape.Grid(cell.W, cell.H, 1)
		return trace.RollingPartition(pos, float64(cell.W), sp.Bands, sp.FailAt, sp.Stride, sp.RejoinAt)
	case "rack-failure":
		pos := shape.Grid(cell.W, cell.H, 1)
		return trace.DatacenterOutage(pos, float64(cell.W), sp.DCs, sp.FailAt, sp.RejoinAt)
	case "weibull":
		return trace.WeibullLifetimes(n, cell.Rounds, sp.Shape, sp.Scale, cell.ScheduleSeed)
	case "trace":
		f, err := os.Open(sp.Trace)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadScheduleCSV(f)
	}
	return nil, fmt.Errorf("experiments: unknown scenario %q", sp.Name)
}

// RunCell executes one cell to completion on an engine of its own.
func RunCell(cell Cell) (CellResult, error) {
	det, err := ParseDetector(cell.Detector, scenario.CellSeed(cell.Seed, "detector"))
	if err != nil {
		return CellResult{}, err
	}
	cfg := scenario.Config{
		Seed:                cell.Seed,
		W:                   cell.W,
		H:                   cell.H,
		Polystyrene:         true,
		K:                   cell.K,
		Detector:            det,
		ExchangeParallelism: cell.Exchange,
	}

	var sc *scenario.Scenario
	switch cell.Scenario.Name {
	case "reshape":
		return runReshape(cell, cfg)
	case "paper":
		sc, err = scenario.New(cfg)
		if err != nil {
			return CellResult{}, err
		}
		ph := scenario.Phases{FailAt: cell.Scenario.FailAt, ReinjectAt: cell.Scenario.RejoinAt, End: cell.Rounds}
		scenario.DrivePhases(sc, ph, cell.Rounds)
	default:
		sched, berr := BuildSchedule(cell)
		if berr != nil {
			return CellResult{}, berr
		}
		sc, _, err = scenario.RunSchedule(cfg, sched, cell.Rounds)
		if err != nil {
			return CellResult{}, err
		}
	}
	defer sc.Close()

	out := CellResult{
		Cell:             cell,
		FinalHomogeneity: sc.Homogeneity(),
		ReferenceH:       sc.ReferenceHomogeneity(),
		ReliabilityPct:   100 * sc.Reliability(),
		Series:           sc.Result(),
	}
	out.ShapeHeld = out.FinalHomogeneity < out.ReferenceH
	out.Fingerprint = Fingerprint(out.Series)
	return out, nil
}

// runReshape measures one reshape cell: MeasureReshaping with fail_at
// convergence rounds and the rest of the horizon as the reshaping budget.
func runReshape(cell Cell, cfg scenario.Config) (CellResult, error) {
	split, err := core.ParseSplitKind(cell.Scenario.Split)
	if err != nil {
		return CellResult{}, err
	}
	cfg.Split = split
	o, err := scenario.MeasureReshaping(cfg, cell.Scenario.FailAt, cell.Rounds-cell.Scenario.FailAt)
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{
		Cell:             cell,
		FinalHomogeneity: o.Homogeneity,
		ReferenceH:       o.ReferenceH,
		ShapeHeld:        o.Homogeneity < o.ReferenceH,
		ReliabilityPct:   100 * o.Reliability,
		ReshapeRounds:    o.Rounds,
		Fingerprint:      outcomeFingerprint(o),
	}, nil
}

// RunOpts bounds a grid execution. The bounds never affect results:
// cell results fold in expansion order.
type RunOpts struct {
	// Parallelism is the worker budget for concurrent cells; <= 0 means
	// GOMAXPROCS.
	Parallelism int
	// MemBudgetBytes bounds concurrent cells by their estimated engine
	// footprint (<= 0: unbounded); the largest cell in the grid is used
	// as the per-job estimate.
	MemBudgetBytes int64
	// Progress, when non-nil, receives one line per finished cell (order
	// reflects completion, not expansion; results always fold in
	// expansion order).
	Progress func(line string)
}

// parallelism resolves how many of `cells` cells may run at once: the
// worker budget, capped by the cell count and, when both are known, by
// how many cells of cellBytes fit the memory budget — always at least
// one, or nothing would ever run.
func (o RunOpts) parallelism(cells int, cellBytes int64) int {
	par := o.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	par = min(par, max(cells, 1))
	if o.MemBudgetBytes > 0 && cellBytes > 0 {
		par = min(par, max(int(o.MemBudgetBytes/cellBytes), 1))
	}
	return par
}

// fanOut runs fn(0), ..., fn(n-1) on at most parallelism goroutines (at
// least one) and waits for all of them. Every job runs even when another
// fails; the result is the error of the lowest-indexed failing job, and a
// panicking job counts as failed, so one bad cell cannot take the whole
// grid down. Each job writes only its own slot of a pre-sized result
// slice, so the fold is identical under any scheduling.
func fanOut(parallelism, n int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(min(parallelism, n), 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = safeCall(fn, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// safeCall converts a panicking job into an error.
func safeCall(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: job %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// Run expands the spec and executes every cell under the given budget.
// Results come back in expansion order regardless of scheduling, so a
// grid run is deterministic at every parallelism level.
func Run(spec *Spec, opts RunOpts) ([]CellResult, error) {
	cells := spec.Expand()
	results := make([]CellResult, len(cells))
	var maxBytes int64
	for _, c := range cells {
		cfg := scenario.Config{W: c.W, H: c.H, Polystyrene: true, K: c.K}
		if b := cfg.EstimatedFootprintBytes(); b > maxBytes {
			maxBytes = b
		}
	}
	err := fanOut(opts.parallelism(len(cells), maxBytes), len(cells), func(i int) error {
		r, err := RunCell(cells[i])
		if err != nil {
			return fmt.Errorf("experiments: cell %s: %w", cells[i].ID(), err)
		}
		results[i] = r
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("cell %d/%d %s: h=%.4f H=%.4f rel=%.1f%% fp=%016x",
				i+1, len(cells), cells[i].ID(), r.FinalHomogeneity, r.ReferenceH, r.ReliabilityPct, r.Fingerprint))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// AuditDeterminism cross-checks the grid's built-in identity invariant:
// cells that differ only in exchange parallelism >= 1 share a seed and a
// schedule, so the engine contract requires their series to be
// byte-identical. Returns the number of multi-cell identity groups
// checked, and an error naming the first divergence. Cells at level 0
// (the legacy sequential engine, a distinct deterministic trajectory)
// form their own group.
func AuditDeterminism(results []CellResult) (groups int, err error) {
	type key struct {
		label      string
		w, h, k    int
		det        string
		rep        int
		sequential bool
	}
	first := make(map[key]*CellResult)
	checked := make(map[key]bool)
	for i := range results {
		r := &results[i]
		k := key{r.Cell.Scenario.Label, r.Cell.W, r.Cell.H, r.Cell.K, r.Cell.Detector, r.Cell.Rep, r.Cell.Exchange == 0}
		prev, ok := first[k]
		if !ok {
			first[k] = r
			continue
		}
		if !checked[k] {
			checked[k] = true
			groups++
		}
		if prev.Fingerprint != r.Fingerprint {
			return groups, fmt.Errorf("experiments: determinism violation: %s (fp %016x) and %s (fp %016x) must be byte-identical",
				prev.Cell.ID(), prev.Fingerprint, r.Cell.ID(), r.Fingerprint)
		}
	}
	return groups, nil
}
