// Package scenario assembles the full experimental stack of the paper
// (RPS → T-Man → Polystyrene over a torus grid) and drives the evaluation
// scenario of Sec. IV-A. The stack itself is Stack, over any space and
// shape; the polystyrene facade builds one too. Scenario runs a Stack over
// the torus grid through the paper's phases:
//
//   - Phase 1, Convergence (rounds [0, 20)): the topology converges while
//     Polystyrene replicates data points and monitors nodes.
//   - Phase 2, Failure (rounds [20, 100)): at round 20 all nodes located in
//     one half of the torus crash simultaneously; the system re-converges.
//   - Phase 3, Reinjection (rounds [100, 200)): at round 100 as many fresh
//     nodes are injected, empty-handed, on a grid parallel to the original.
//
// Both evaluated configurations are supported: Polystyrene over T-Man, and
// plain T-Man (the baseline, which heals its links but cannot recover the
// shape). The harness records the paper's metrics every round and derives
// the reshaping time and reliability figures of Table II.
package scenario

import (
	"fmt"

	"polystyrene/internal/core"
	"polystyrene/internal/fd"
	"polystyrene/internal/metrics"
	"polystyrene/internal/shape"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// Config describes one experiment.
type Config struct {
	// Seed makes the run reproducible.
	Seed uint64
	// W, H are the torus grid dimensions (N = W*H nodes, one per unit
	// grid cell); zero means the paper's 80x40.
	W, H int
	// Polystyrene selects the full stack; false runs plain T-Man.
	Polystyrene bool
	// K is the replication factor (Polystyrene only).
	K int
	// Split selects the migration split function (Polystyrene only);
	// zero means SplitAdvanced.
	Split core.SplitKind
	// Detector overrides the failure detector; nil means perfect.
	Detector fd.Detector
	// SkipMetrics disables per-round metric collection (for sweeps that
	// only need the final state or reshaping time).
	SkipMetrics bool
	// ExchangeParallelism, when >= 1, runs rounds under the engine's
	// intra-round exchange batching with that many workers. Results are
	// byte-identical for every value >= 1 (worker count is a throughput
	// knob only); 0 keeps the legacy sequential engine, whose trajectory
	// differs, and a negative value is refused. See
	// sim.SetExchangeParallelism.
	ExchangeParallelism int
}

const (
	// gridStep is the spacing of the torus grid's nodes.
	gridStep = 1.0
	// neighborK is the neighbourhood size used by the proximity metric
	// and snapshots ("we represent the 4 closest nodes", Sec. IV-A).
	neighborK = 4
)

// validate refuses negative grid sides and replication factors; zero
// keeps meaning the default.
func (c Config) validate() error {
	if c.W < 0 || c.H < 0 {
		return fmt.Errorf("scenario: grid %dx%d has a negative side", c.W, c.H)
	}
	if c.K < 0 {
		return fmt.Errorf("scenario: replication factor K=%d is negative", c.K)
	}
	if c.ExchangeParallelism < 0 {
		return fmt.Errorf("scenario: exchange parallelism %d is negative", c.ExchangeParallelism)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.W == 0 {
		c.W = 80
	}
	if c.H == 0 {
		c.H = 40
	}
	if c.K == 0 {
		c.K = core.DefaultK
	}
	if c.Split == 0 {
		c.Split = core.SplitAdvanced
	}
	return c
}

// Scenario is a wired, running experiment: a Stack over the torus grid,
// driven by the paper's scripts and recording its metrics every round.
type Scenario struct {
	*Stack
	Cfg   Config
	Space space.Torus

	result *Result
}

// Result is the per-round metric record of a run.
type Result struct {
	// Homogeneity, Proximity, DataPoints, MsgCost have one entry per
	// completed round.
	Homogeneity []float64
	Proximity   []float64
	DataPoints  []float64
	MsgCost     []float64
	// LiveNodes traces the live node count per round.
	LiveNodes []int
}

// New wires a scenario and creates its initial node population.
func New(cfg Config) (*Scenario, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	sc := &Scenario{
		Cfg:    cfg,
		Space:  space.TorusForGrid(cfg.W, cfg.H, gridStep),
		result: &Result{},
	}
	st, err := NewStack(cfg, sc.Space, shape.Grid(cfg.W, cfg.H, gridStep))
	if err != nil {
		return nil, err
	}
	sc.Stack = st
	if !cfg.SkipMetrics {
		sc.Engine.Observe(sc.record)
	}
	return sc, nil
}

// MustNew is New but panics on error (for tests and examples).
func MustNew(cfg Config) *Scenario {
	sc, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return sc
}

// Footprint heuristics behind EstimatedFootprintBytes, calibrated
// against live runtime.MemStats sampling of converged mid-size cells
// (TestEstimatedFootprintTracksMeasuredHeap re-runs the calibration and
// pins the estimate to measured heap within a documented factor): one
// node of one protocol layer costs ~620 B at rest (views, guest sets,
// ghost runs and backup targets, pooled scratch, engine bookkeeping), and
// each interned point of the Polystyrene data universe costs ~160 B on
// top (the interner's point storage, key string and id map entry, and a
// row of the layer's guests⁻¹ table). The point term is what the estimate
// used to ignore: guest sets and the guests⁻¹ table scale with points,
// not nodes, so dense data universes under-estimated and the grid's
// memory budget over-admitted cells. Both constants are deliberately a
// little generous — the estimate reads 1.5–1.75× the measured heap —
// because it bounds how many grid cells run at once (poly grid
// -parallel and -mem-budget), where overshooting trades throughput and
// undershooting trades the machine.
const (
	estFootprintBytesPerNodeLayer = 620
	estFootprintBytesPerPoint     = 160
)

// EstimatedFootprintBytes estimates the resident memory of one running
// cell of this configuration: nodes x protocol-layer count x a per-node
// constant, plus — under Polystyrene — the interned point universe (the
// target shape holds one data point per grid cell) x a per-point
// constant. It is the per-cell cost the memory-budgeted experiment grid
// (experiments.RunOpts.MemBudgetBytes) divides its budget by.
func (c Config) EstimatedFootprintBytes() int64 {
	c = c.withDefaults()
	nodes := int64(c.W) * int64(c.H)
	layers := int64(2) // sampler + overlay
	if c.Polystyrene {
		layers++
	}
	est := nodes * layers * estFootprintBytesPerNodeLayer
	if c.Polystyrene {
		// The data universe: one interned original point per node, plus
		// the reinjection wave's half-offset positions interned as nodes
		// re-join. Priced per point, not per node-layer, because the
		// interner and the guests⁻¹ table scale with it.
		est += nodes * estFootprintBytesPerPoint
	}
	return est
}

// FailRightHalf crashes every live node currently positioned in the right
// half of the torus — the catastrophic correlated failure of Fig. 1 and
// phase 2. It returns the number of crashed nodes.
func (sc *Scenario) FailRightHalf() int {
	w := float64(sc.Cfg.W) * gridStep
	return sc.FailRegion(func(p space.Point) bool { return space.RightHalf(p, w) })
}

// Reinject adds n fresh nodes. Under Polystyrene they hold no data point
// but have initialised positions on the parallel grid; under plain T-Man
// they are ordinary nodes pinned at those positions. Polystyrene joiners
// are never pinned: their position is the reinjection grid's until the
// layer moves them.
func (sc *Scenario) Reinject(n int) []sim.NodeID {
	ids := sc.Engine.AddNodes(n)
	if sc.poly == nil {
		for _, id := range ids {
			sc.Pin(id, sc.reinjectionPosition(id))
		}
	}
	return ids
}

// record is the per-round metrics observer. The homogeneity reading comes
// from the stack's guests⁻¹ index (see Stack.Homogeneity).
func (sc *Scenario) record(e *sim.Engine, round int) {
	r := sc.result
	r.Homogeneity = append(r.Homogeneity, sc.Homogeneity())
	r.Proximity = append(r.Proximity, metrics.Proximity(sc.sys, neighborK))
	r.DataPoints = append(r.DataPoints, metrics.DataPointsPerNode(sc.sys))
	r.MsgCost = append(r.MsgCost, metrics.MessageCostPerNode(e, round))
	r.LiveNodes = append(r.LiveNodes, e.NumLive())
}

// Result returns the metric record accumulated so far.
func (sc *Scenario) Result() *Result { return sc.result }

// ReferenceHomogeneity returns H for the current live population.
func (sc *Scenario) ReferenceHomogeneity() float64 {
	return metrics.ReferenceHomogeneity(sc.Space.Area(), sc.Engine.NumLive())
}
