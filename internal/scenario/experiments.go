package scenario

import (
	"fmt"
	"sort"
	"sync"

	"polystyrene/internal/metrics"
	"polystyrene/internal/runner"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// Phases fixes the round boundaries of the paper's evaluation scenario.
type Phases struct {
	// FailAt is the round of the catastrophic failure (paper: 20).
	FailAt int
	// ReinjectAt is the round fresh nodes are injected (paper: 100).
	ReinjectAt int
	// End is the total number of rounds (paper: 200).
	End int
}

// PaperPhases returns the boundaries used in the paper (Sec. IV-A).
func PaperPhases() Phases { return Phases{FailAt: 20, ReinjectAt: 100, End: 200} }

// Validate checks phase ordering.
func (p Phases) Validate() error {
	if !(0 < p.FailAt && p.FailAt <= p.ReinjectAt && p.ReinjectAt <= p.End) {
		return fmt.Errorf("scenario: invalid phases %+v (need 0 < FailAt <= ReinjectAt <= End)", p)
	}
	return nil
}

// RunPaper executes the full 3-phase scenario and returns the scenario in
// its final state together with its per-round metric record.
func RunPaper(cfg Config, phases Phases) (*Scenario, *Result, error) {
	if err := phases.Validate(); err != nil {
		return nil, nil, err
	}
	sc, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	sc.Run(phases.FailAt)
	killed := sc.FailRightHalf()
	sc.Run(phases.ReinjectAt - phases.FailAt)
	sc.Reinject(killed)
	sc.Run(phases.End - phases.ReinjectAt)
	return sc, sc.Result(), nil
}

// ReshapingOutcome is one observation for Table II.
type ReshapingOutcome struct {
	// Rounds is the reshaping time: rounds from the failure until the
	// homogeneity first drops below the reference H of the surviving
	// population. Equal to MaxRounds+1 when never reached.
	Rounds int
	// Reached reports whether the homogeneity threshold was met.
	Reached bool
	// Reliability is the surviving fraction of original data points,
	// measured when the threshold is reached (or at the round budget).
	Reliability float64
}

// MeasureReshaping converges a fresh system for convergeRounds, triggers
// the half-torus catastrophe, and counts the rounds needed for the
// homogeneity to drop below the reference value (Sec. IV-A). An engine it
// allocates itself is closed before returning (a supplied cfg.Engine
// stays open — the pooling caller owns it).
func MeasureReshaping(cfg Config, convergeRounds, maxRounds int) (ReshapingOutcome, error) {
	cfg.SkipMetrics = true
	sc, err := New(cfg)
	if err != nil {
		return ReshapingOutcome{}, err
	}
	if cfg.Engine == nil {
		defer sc.Close()
	}
	sc.Run(convergeRounds)
	return measureReshapingTail(sc, maxRounds), nil
}

// measureReshapingTail triggers the catastrophe on a converged (or
// warm-restored) scenario and measures the reshaping time — the shared
// second half of MeasureReshaping and MeasureReshapingFrom.
func measureReshapingTail(sc *Scenario, maxRounds int) ReshapingOutcome {
	sc.FailRightHalf()
	ref := sc.ReferenceHomogeneity()
	rounds, reached := sc.Engine.RunUntil(maxRounds, func(*sim.Engine, int) bool {
		return sc.Homogeneity() < ref
	})
	if !reached {
		rounds = maxRounds + 1
	}
	return ReshapingOutcome{
		Rounds:      rounds,
		Reached:     reached,
		Reliability: sc.Reliability(),
	}
}

// splitmix64 is the avalanche step of the splitmix64 generator, used to
// derive well-separated sweep-cell seeds.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sweepSeed derives one sweep cell's seed by chaining the base seed, a
// variant label and the cell coordinates through splitmix64. Additive
// derivations (base + f(cell)) collide — rep r of an N-node cell equals
// rep 0 of an (N+r)-node cell, and same-size variants share seeds — so
// every distinguishing component is mixed through a full avalanche
// instead.
func sweepSeed(base uint64, label string, parts ...uint64) uint64 {
	x := splitmix64(base ^ uint64(len(label)))
	for _, b := range []byte(label) {
		x = splitmix64(x ^ uint64(b))
	}
	for _, p := range parts {
		x = splitmix64(x ^ p)
	}
	return x
}

// CellSeed derives a well-separated per-cell seed from a base seed, a
// variant label and the cell coordinates — the exported form of the
// sweep-seed derivation, shared with the experiment-grid runner
// (internal/experiments) so grid cells and sweep cells use one collision
// -resistant scheme.
func CellSeed(base uint64, label string, parts ...uint64) uint64 {
	return sweepSeed(base, label, parts...)
}

// RunOpts bundles the execution parameters shared by the repeated-run
// harnesses (Table II, Fig. 10 sweeps).
type RunOpts struct {
	// Reps is the number of repetitions per measured point.
	Reps int
	// ConvergeRounds is how long the system converges before the failure.
	ConvergeRounds int
	// MaxRounds is the round budget for reshaping after the failure.
	MaxRounds int
	// Parallelism bounds how many cells run concurrently: 0 means
	// GOMAXPROCS, 1 runs serially. Results are identical at every level —
	// each cell owns its engine and PRNG, and results fold in index order.
	Parallelism int
	// ExchangeParallelism caps the per-cell intra-round exchange workers.
	// 0 (the default) keeps cells on the legacy sequential engine; any
	// value >= 1 switches cells to the batched engine, whose results are
	// byte-identical at every worker count >= 1. The harness composes the
	// two levels under one budget (runner.Budget): cells fan out first,
	// leftover cores go to exchange workers up to this cap, so the actual
	// per-cell worker count never changes results.
	ExchangeParallelism int
	// MemBudgetBytes additionally bounds concurrent cells by their
	// estimated engine footprint: at most MemBudgetBytes / cell-bytes
	// cells run at once (always at least one). 0 means unbounded. Every
	// cell still runs — a tight budget trades throughput, never coverage
	// or results.
	MemBudgetBytes int64
	// CellBytes overrides the per-cell footprint estimate used with
	// MemBudgetBytes; 0 derives it from the harness's largest cell via
	// Config.EstimatedFootprintBytes.
	CellBytes int64
	// PoolEngines recycles engines across cells of equal size via
	// sim.Engine.Reset instead of allocating one per cell, bounding a
	// sweep's engine footprint by its concurrency rather than its cell
	// count. Results are byte-identical either way (pinned by the
	// pooled-sweep identity test).
	PoolEngines bool
	// WarmStart pays convergence once per distinct cell configuration:
	// the harness converges one cell, checkpoints it (ConvergedSnapshot)
	// and restores that snapshot into every repetition, which then forks
	// its own trajectory from its cell seed. Repetitions share a converged
	// topology instead of each re-paying ConvergeRounds, trading the
	// cold-path's independent convergence transcripts for sweep
	// throughput; outcomes remain deterministic at every parallelism
	// level. Composes with PoolEngines (warm cells restore into
	// pooled-Reset engines).
	WarmStart bool
}

// compose splits the machine budget between concurrent cells and per-cell
// exchange workers for a harness about to run `jobs` cells, each costing
// an estimated cellBytes (overridden by opts.CellBytes when set).
func (o RunOpts) compose(jobs int, cellBytes int64) (cellPar, exPar int) {
	if o.CellBytes > 0 {
		cellBytes = o.CellBytes
	}
	return runner.Budget{
		Workers:     o.Parallelism,
		ExchangeCap: o.ExchangeParallelism,
		MemBytes:    o.MemBudgetBytes,
		JobBytes:    cellBytes,
	}.Split(jobs)
}

// EnginePool recycles engines across the cells of one sweep or
// experiment grid, keyed by initial node count so equal-size cells reuse
// fully-sized backing arrays. Concurrent cells each hold a distinct
// engine; a cell that finds the pool empty gets a fresh engine that joins
// the pool when it is released. Drain closes every pooled engine
// (releasing parked exchange workers) once the run has folded its
// results. A nil *EnginePool means pooling is off: Acquire is a no-op and
// Drain does nothing, so callers thread one variable either way.
type EnginePool struct {
	mu   sync.Mutex
	free map[int][]*sim.Engine
}

// NewEnginePool returns an empty pool.
func NewEnginePool() *EnginePool { return &EnginePool{} }

// Acquire hands cfg a pooled engine (pool == nil means pooling is off and
// Acquire is a no-op) and returns the release that parks it back.
func (p *EnginePool) Acquire(cfg *Config) (release func()) {
	if p == nil {
		return func() {}
	}
	c := cfg.withDefaults()
	nodes := c.W * c.H
	p.mu.Lock()
	var eng *sim.Engine
	if l := p.free[nodes]; len(l) > 0 {
		eng = l[len(l)-1]
		p.free[nodes] = l[:len(l)-1]
	}
	p.mu.Unlock()
	if eng == nil {
		eng = sim.New(0)
	}
	cfg.Engine = eng
	return func() {
		p.mu.Lock()
		if p.free == nil {
			p.free = make(map[int][]*sim.Engine)
		}
		p.free[nodes] = append(p.free[nodes], eng)
		p.mu.Unlock()
	}
}

// Drain closes every parked engine and empties the pool.
func (p *EnginePool) Drain() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.free {
		for _, e := range l {
			e.Close()
		}
	}
	p.free = nil
}

// pool returns the sweep-lifetime engine pool, nil when pooling is off.
func (o RunOpts) pool() *EnginePool {
	if !o.PoolEngines {
		return nil
	}
	return NewEnginePool()
}

// TableIIRow aggregates repeated reshaping measurements for one K.
type TableIIRow struct {
	K               int
	ReshapingTime   metrics.Accumulator
	ReliabilityPct  metrics.Accumulator
	FailedToReshape int
}

// TableII reproduces Table II: reshaping time and reliability on the
// configured torus for each replication factor, averaged over opts.Reps
// runs. Repetitions fan out across cores via the runner (each owns its
// engine); results are folded in repetition order so the output is
// deterministic regardless of opts.Parallelism.
func TableII(base Config, ks []int, opts RunOpts) ([]TableIIRow, error) {
	rows := make([]TableIIRow, len(ks))
	outcomes := make([]ReshapingOutcome, len(ks)*opts.Reps)
	est := base
	est.Polystyrene = true
	cellPar, exPar := opts.compose(len(outcomes), est.EstimatedFootprintBytes())
	pool := opts.pool()
	defer pool.Drain()
	err := runner.Map(cellPar, len(outcomes), func(job int) error {
		k := ks[job/opts.Reps]
		rep := job % opts.Reps
		cfg := base
		cfg.Polystyrene = true
		cfg.K = k
		cfg.ExchangeParallelism = exPar
		cfg.Seed = sweepSeed(base.Seed, "tableII", uint64(k), uint64(rep))
		defer pool.Acquire(&cfg)()
		out, err := MeasureReshaping(cfg, opts.ConvergeRounds, opts.MaxRounds)
		if err != nil {
			return err
		}
		outcomes[job] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range ks {
		rows[i].K = k
		for rep := 0; rep < opts.Reps; rep++ {
			out := outcomes[i*opts.Reps+rep]
			if !out.Reached {
				rows[i].FailedToReshape++
			}
			rows[i].ReshapingTime.Add(float64(out.Rounds))
			rows[i].ReliabilityPct.Add(100 * out.Reliability)
		}
	}
	return rows, nil
}

// SweepPoint is one (network size, configuration) cell of Fig. 10.
type SweepPoint struct {
	Nodes         int
	Label         string
	ReshapingTime metrics.Accumulator
}

// GridSize is a torus grid dimension pair for sweeps.
type GridSize struct{ W, H int }

// PaperGridSizes returns the 2:1-aspect grids spanning the size axis of
// Fig. 10 (up to the paper's 51 200-node 320x160 torus).
func PaperGridSizes(maxNodes int) []GridSize {
	all := []GridSize{
		{16, 8}, {20, 10}, {40, 20}, {80, 40}, {160, 80}, {320, 160},
	}
	out := make([]GridSize, 0, len(all))
	for _, g := range all {
		if g.W*g.H <= maxNodes {
			out = append(out, g)
		}
	}
	return out
}

// SizeSweep measures reshaping time across network sizes for a family of
// configurations (Fig. 10a varies K; Fig. 10b varies the split function).
// variants maps a label to a mutation of the base config. Grid cells fan
// out across cores via the runner; results fold in deterministic order,
// so the output is identical at every opts.Parallelism level.
func SizeSweep(base Config, sizes []GridSize, variants map[string]func(Config) Config,
	opts RunOpts) (map[string][]SweepPoint, error) {

	labels := make([]string, 0, len(variants))
	for label := range variants {
		labels = append(labels, label)
	}
	sort.Strings(labels)

	type cell struct {
		label string
		size  GridSize
		rep   int
	}
	cells := make([]cell, 0, len(labels)*len(sizes)*opts.Reps)
	for _, label := range labels {
		for _, size := range sizes {
			for rep := 0; rep < opts.Reps; rep++ {
				cells = append(cells, cell{label: label, size: size, rep: rep})
			}
		}
	}

	rounds := make([]float64, len(cells))
	est := base
	est.Polystyrene = true
	for _, size := range sizes {
		if size.W*size.H > est.W*est.H {
			est.W, est.H = size.W, size.H
		}
	}
	cellPar, exPar := opts.compose(len(cells), est.EstimatedFootprintBytes())
	pool := opts.pool()
	defer pool.Drain()

	// Warm start: converge one cell per distinct (variant, size)
	// configuration up front and share its checkpoint across the
	// repetitions, which only differ by seed.
	type warmKey struct {
		label string
		size  GridSize
	}
	var warm map[warmKey][]byte
	if opts.WarmStart {
		keys := make([]warmKey, 0, len(labels)*len(sizes))
		for _, label := range labels {
			for _, size := range sizes {
				keys = append(keys, warmKey{label: label, size: size})
			}
		}
		snaps := make([][]byte, len(keys))
		err := runner.Map(cellPar, len(keys), func(i int) error {
			k := keys[i]
			cfg := variants[k.label](base)
			cfg.Polystyrene = true
			cfg.W, cfg.H = k.size.W, k.size.H
			cfg.ExchangeParallelism = exPar
			cfg.Seed = sweepSeed(base.Seed, "warm:"+k.label, uint64(k.size.W), uint64(k.size.H))
			release := pool.Acquire(&cfg)
			b, err := ConvergedSnapshot(cfg, opts.ConvergeRounds)
			release()
			if err != nil {
				return err
			}
			snaps[i] = b
			return nil
		})
		if err != nil {
			return nil, err
		}
		warm = make(map[warmKey][]byte, len(keys))
		for i, k := range keys {
			warm[k] = snaps[i]
		}
	}

	err := runner.Map(cellPar, len(cells), func(i int) error {
		c := cells[i]
		cfg := variants[c.label](base)
		cfg.Polystyrene = true
		cfg.W, cfg.H = c.size.W, c.size.H
		cfg.ExchangeParallelism = exPar
		cfg.Seed = sweepSeed(base.Seed, c.label, uint64(c.size.W), uint64(c.size.H), uint64(c.rep))
		defer pool.Acquire(&cfg)()
		var res ReshapingOutcome
		var err error
		if warm != nil {
			res, err = MeasureReshapingFrom(cfg, warm[warmKey{label: c.label, size: c.size}], opts.MaxRounds)
		} else {
			res, err = MeasureReshaping(cfg, opts.ConvergeRounds, opts.MaxRounds)
		}
		if err != nil {
			return err
		}
		rounds[i] = float64(res.Rounds)
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make(map[string][]SweepPoint, len(variants))
	i := 0
	for _, label := range labels {
		points := make([]SweepPoint, 0, len(sizes))
		for _, size := range sizes {
			pt := SweepPoint{Nodes: size.W * size.H, Label: label}
			for rep := 0; rep < opts.Reps; rep++ {
				pt.ReshapingTime.Add(rounds[i])
				i++
			}
			points = append(points, pt)
		}
		out[label] = points
	}
	return out, nil
}

// NodeSnapshot is the rendered state of one node (Figs. 1, 8, 9). The
// Neighbors slices of one Snapshot call share a single backing array —
// read them freely (as the viz renderers do), but do not append to them.
type NodeSnapshot struct {
	ID        sim.NodeID
	Pos       space.Point
	Neighbors []sim.NodeID
}

// Snapshot captures every live node's position and its NeighborK closest
// overlay neighbours for rendering. All neighbour lists append into one
// exact-capacity backing array (at most NeighborK entries per live node),
// so a snapshot costs two allocations plus the cloned positions instead
// of one slice per node.
func (sc *Scenario) Snapshot() []NodeSnapshot {
	live := sc.Engine.LiveIDs()
	out := make([]NodeSnapshot, 0, len(live))
	nbrs := make([]sim.NodeID, 0, len(live)*sc.Cfg.NeighborK)
	for _, id := range live {
		start := len(nbrs)
		nbrs = sc.topo.AppendNeighbors(nbrs, id, sc.Cfg.NeighborK)
		out = append(out, NodeSnapshot{
			ID:        id,
			Pos:       sc.position(id).Clone(),
			Neighbors: nbrs[start:len(nbrs):len(nbrs)],
		})
	}
	return out
}
