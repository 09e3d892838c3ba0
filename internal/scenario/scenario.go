// Package scenario assembles the full experimental stack of the paper
// (RPS → T-Man → Polystyrene over a torus grid) and drives the evaluation
// scenario of Sec. IV-A:
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
	"polystyrene/internal/rps"
	"polystyrene/internal/shape"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/tman"
	"polystyrene/internal/vicinity"
)

// Config describes one experiment.
type Config struct {
	// Seed makes the run reproducible.
	Seed uint64
	// W, H are the torus grid dimensions (N = W*H nodes); zero means the
	// paper's 80x40. Step is the grid step (zero means 1).
	W, H int
	Step float64
	// Polystyrene selects the full stack; false runs plain T-Man.
	Polystyrene bool
	// K is the replication factor (Polystyrene only).
	K int
	// Split selects the migration split function (Polystyrene only);
	// zero means SplitAdvanced.
	Split core.SplitKind
	// Detector overrides the failure detector; nil means perfect.
	Detector fd.Detector
	// Placement overrides backup placement; zero means random.
	Placement core.BackupPlacement
	// FullCopyBackup disables the incremental-delta backup optimisation.
	FullCopyBackup bool
	// Overlay selects the topology-construction protocol: "tman"
	// (default, the paper's host) or "vicinity" (the alternative host
	// named in the paper's Fig. 3).
	Overlay string
	// TMan overrides T-Man parameters; zero fields take paper defaults.
	// Ignored when Overlay is "vicinity".
	TMan tman.Config
	// NeighborK is the neighbourhood size used by the proximity metric
	// and snapshots ("we represent the 4 closest nodes", Sec. IV-A).
	NeighborK int
	// SkipMetrics disables per-round metric collection (for sweeps that
	// only need the final state or reshaping time).
	SkipMetrics bool
	// ExchangeParallelism, when >= 1, runs rounds under the engine's
	// intra-round exchange batching with that many workers. Results are
	// byte-identical for every value >= 1 (worker count is a throughput
	// knob only); 0 keeps the legacy sequential engine, whose trajectory
	// differs. See sim.SetExchangeParallelism.
	ExchangeParallelism int
	// Engine, when non-nil, is reused via sim.Engine.Reset(Seed, layers)
	// instead of allocating a fresh engine — the pooled-cell path of the
	// sweep harnesses, which recycles one engine across cells of equal
	// size. A reset engine's trajectory is byte-identical to a fresh
	// one's. The caller keeps ownership: Close is never called on a
	// supplied engine.
	Engine *sim.Engine
}

func (c Config) withDefaults() Config {
	if c.W == 0 {
		c.W = 80
	}
	if c.H == 0 {
		c.H = 40
	}
	if c.Step == 0 {
		c.Step = 1
	}
	if c.K == 0 {
		c.K = core.DefaultK
	}
	if c.Split == 0 {
		c.Split = core.SplitAdvanced
	}
	if c.NeighborK == 0 {
		c.NeighborK = 4
	}
	return c
}

// Scenario is a wired, running experiment.
type Scenario struct {
	Cfg    Config
	Engine *sim.Engine
	Space  space.Torus
	// Points are the original data points — the target shape. Index i is
	// the original position of node i. PointIDs carries their interned
	// identities in lockstep: the scenario owns the interner shared with
	// the Polystyrene layer, so the indexed metrics resolve the same IDs
	// the protocol maintains.
	Points   []space.Point
	PointIDs []space.PointID
	Interner *space.Interner

	sampler *rps.Protocol
	topo    topology
	poly    *core.Protocol // nil when running the plain baseline

	// fixedPos holds positions of reinjected nodes in the plain T-Man
	// configuration (indexed by NodeID; nil entries fall back to Points).
	fixedPos map[sim.NodeID]space.Point

	// sys is the persistent metrics view (polySystem or tmanSystem); its
	// live-ID buffer is reused across rounds.
	sys metrics.System

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
	cfg = cfg.withDefaults()
	sc := &Scenario{
		Cfg:      cfg,
		Space:    space.TorusForGrid(cfg.W, cfg.H, cfg.Step),
		Points:   shape.Grid(cfg.W, cfg.H, cfg.Step),
		Interner: space.NewInterner(),
		sampler:  rps.New(rps.Config{}),
		fixedPos: make(map[sim.NodeID]space.Point),
		result:   &Result{},
	}
	// Generated shapes register into the interner once at setup
	// (intern-before-use); the IDs feed the indexed metrics.
	sc.PointIDs = shape.Intern(sc.Interner, sc.Points)

	switch cfg.Overlay {
	case "", "tman":
		tmCfg := cfg.TMan
		tmCfg.Space = sc.Space
		tmCfg.Sampler = sc.sampler
		tmCfg.Position = sc.position
		tm, err := tman.New(tmCfg)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		sc.topo = tm
	case "vicinity":
		vic, err := vicinity.New(vicinity.Config{
			Space:    sc.Space,
			Sampler:  sc.sampler,
			Position: sc.position,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		sc.topo = vic
	default:
		return nil, fmt.Errorf("scenario: unknown overlay %q (want tman|vicinity)", cfg.Overlay)
	}

	layers := []sim.Protocol{sc.sampler, sc.topo}
	if cfg.Polystyrene {
		poly, err := core.New(core.Config{
			Space:          sc.Space,
			Topology:       sc.topo,
			Sampler:        sc.sampler,
			Detector:       cfg.Detector,
			Interner:       sc.Interner,
			K:              cfg.K,
			Split:          cfg.Split,
			Placement:      cfg.Placement,
			FullCopyBackup: cfg.FullCopyBackup,
			InitialPoint:   sc.initialPoint,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		sc.poly = poly
		layers = append(layers, poly)
		sc.sys = &polySystem{sc: sc}
	} else {
		sc.sys = &tmanSystem{sc: sc}
	}

	if cfg.Engine != nil {
		cfg.Engine.Reset(cfg.Seed, layers...)
		sc.Engine = cfg.Engine
	} else {
		sc.Engine = sim.New(cfg.Seed, layers...)
	}
	sc.Engine.SetExchangeParallelism(cfg.ExchangeParallelism)
	if !cfg.SkipMetrics {
		sc.Engine.Observe(sc.record)
	}
	sc.Engine.AddNodes(cfg.W * cfg.H)
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

// initialPoint supplies a joining node's original position. Nodes of the
// initial population seed their own data point; later (reinjected) nodes
// start empty on the offset parallel grid.
func (sc *Scenario) initialPoint(id sim.NodeID) (space.Point, bool) {
	if int(id) < len(sc.Points) {
		return sc.Points[id], true
	}
	return sc.reinjectionPosition(id), false
}

// reinjectionPosition places node id on a grid parallel to the original,
// shifted by half a step in both dimensions (Sec. IV-A phase 3: new nodes
// are "positioned uniformly on the torus, on a grid parallel to the
// original one"). Consecutive reinjected nodes take every other cell of
// the grid, so reinjecting N/2 nodes covers the whole torus uniformly at
// half density; a second wave fills the remaining cells.
func (sc *Scenario) reinjectionPosition(id sim.NodeID) space.Point {
	idx := int(id) - len(sc.Points)
	n := len(sc.Points)
	cell := ((2*idx)%n + (2 * idx / n)) % n
	base := sc.Points[cell]
	half := sc.Cfg.Step / 2
	return sc.Space.Wrap(space.Point{base[0] + half, base[1] + half})
}

// position is the PositionFunc fed to T-Man: the Polystyrene projection
// when enabled, otherwise the node's fixed original (or reinjection) spot.
func (sc *Scenario) position(id sim.NodeID) space.Point {
	if sc.poly != nil {
		return sc.poly.Position(id)
	}
	if p, ok := sc.fixedPos[id]; ok {
		return p
	}
	return sc.Points[id]
}

// Run executes n rounds.
func (sc *Scenario) Run(n int) { sc.Engine.RunRounds(n) }

// Close releases the engine's persistent exchange-worker pool. Call it
// when discarding a scenario whose ExchangeParallelism was >= 2 (the
// sweep harnesses do this for the scenarios they own); it is idempotent
// and a no-op for sequential configurations. The scenario stays readable
// — metrics, snapshots and even further (inline-executed) rounds all
// still work.
func (sc *Scenario) Close() { sc.Engine.Close() }

// Footprint heuristics behind EstimatedFootprintBytes, calibrated
// against live runtime.MemStats sampling of converged mid-size cells
// (TestEstimatedFootprintTracksMeasuredHeap re-runs the calibration and
// pins the estimate to measured heap within a documented factor): one
// node of one protocol layer costs ~900 B at rest (views, guest/ghost
// sets, pooled scratch, engine bookkeeping), and each interned point of
// the Polystyrene data universe costs ~450 B on top (the interner's
// point storage and id map, a holders-index row, and the per-point share
// of guest/ghost set slots). The point term is what the estimate used to
// ignore: guest sets and the holders index scale with points, not nodes,
// so dense data universes under-estimated and runner.Budget over-admitted
// cells. Both constants are deliberately a little generous — the estimate
// bounds sweep parallelism, where overshooting trades throughput and
// undershooting trades the machine.
const (
	estFootprintBytesPerNodeLayer = 896
	estFootprintBytesPerPoint     = 448
)

// EstimatedFootprintBytes estimates the resident memory of one running
// cell of this configuration: nodes x protocol-layer count x a per-node
// constant, plus — under Polystyrene — the interned point universe (the
// target shape holds one data point per grid cell) x a per-point
// constant. It is the default per-cell cost the memory-budgeted sweep
// harnesses (RunOpts.MemBudgetBytes) divide their budget by.
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
		// re-join. Priced per point, not per node-layer, because guest
		// sets, ghost sets and the holders index scale with it.
		est += nodes * estFootprintBytesPerPoint
	}
	return est
}

// FailRightHalf crashes every live node currently positioned in the right
// half of the torus — the catastrophic correlated failure of Fig. 1 and
// phase 2. It returns the number of crashed nodes.
func (sc *Scenario) FailRightHalf() int {
	w := float64(sc.Cfg.W) * sc.Cfg.Step
	return sc.FailRegion(func(p space.Point) bool { return space.RightHalf(p, w) })
}

// FailRegion crashes every live node whose current position satisfies the
// predicate, returning how many crashed.
func (sc *Scenario) FailRegion(in func(space.Point) bool) int {
	killed := 0
	for _, id := range sc.Engine.LiveIDs() {
		if in(sc.position(id)) {
			sc.Engine.Kill(id)
			killed++
		}
	}
	return killed
}

// Reinject adds n fresh nodes. Under Polystyrene they hold no data point
// but have initialised positions on the parallel grid; under plain T-Man
// they are ordinary nodes fixed at those positions.
func (sc *Scenario) Reinject(n int) []sim.NodeID {
	ids := sc.Engine.AddNodes(n)
	if sc.poly == nil {
		for _, id := range ids {
			sc.fixedPos[id] = sc.reinjectionPosition(id)
		}
	}
	return ids
}

// record is the per-round metrics observer. Under Polystyrene the
// homogeneity reading comes from the layer's incremental holders index;
// the plain baseline keeps the full-scan path (its "guest set" is the
// node position, which no index maintains).
func (sc *Scenario) record(e *sim.Engine, round int) {
	r := sc.result
	r.Homogeneity = append(r.Homogeneity, sc.Homogeneity())
	r.Proximity = append(r.Proximity, metrics.Proximity(sc.sys, sc.Cfg.NeighborK))
	r.DataPoints = append(r.DataPoints, metrics.DataPointsPerNode(sc.sys))
	r.MsgCost = append(r.MsgCost, metrics.MessageCostPerNode(e, round))
	r.LiveNodes = append(r.LiveNodes, e.NumLive())
}

// Result returns the metric record accumulated so far.
func (sc *Scenario) Result() *Result { return sc.result }

// System returns the metrics view of the current configuration. The view
// is persistent and reuses an internal live-ID buffer across Live calls.
func (sc *Scenario) System() metrics.System { return sc.sys }

// ReferenceHomogeneity returns H for the current live population.
func (sc *Scenario) ReferenceHomogeneity() float64 {
	return metrics.ReferenceHomogeneity(sc.Space.Area(), sc.Engine.NumLive())
}

// Reliability returns the fraction of original data points still hosted.
func (sc *Scenario) Reliability() float64 {
	if sc.poly != nil {
		return metrics.ReliabilityIndexed(sc.sys, sc.poly, sc.PointIDs)
	}
	return metrics.Reliability(sc.sys, sc.Points)
}

// Homogeneity computes the current homogeneity on demand (useful when
// SkipMetrics is set). It reads the Polystyrene holders index when the
// layer is present and falls back to the full scan for the baseline.
func (sc *Scenario) Homogeneity() float64 {
	if sc.poly != nil {
		return metrics.HomogeneityIndexed(sc.sys, sc.poly, sc.Points, sc.PointIDs)
	}
	return metrics.Homogeneity(sc.sys, sc.Points)
}

// topology is what the scenario needs from the overlay layer: it must be
// steppable by the engine and expose closest-neighbour queries.
type topology interface {
	sim.Protocol
	core.Topology
}

// Topology exposes the topology-construction layer (for snapshots, tests
// and application layers such as routing).
func (sc *Scenario) Topology() core.Topology { return sc.topo }

// Poly exposes the Polystyrene layer, nil in the baseline configuration.
func (sc *Scenario) Poly() *core.Protocol { return sc.poly }

// polySystem adapts the full stack to metrics.System. liveBuf and
// guestBuf back Live and Guests so per-round metric sweeps reuse two
// allocations instead of cloning per node.
type polySystem struct {
	sc       *Scenario
	liveBuf  []sim.NodeID
	guestBuf []space.Point
}

func (s *polySystem) Space() space.Space { return s.sc.Space }
func (s *polySystem) Live() []sim.NodeID {
	s.liveBuf = s.sc.Engine.AppendLiveIDs(s.liveBuf[:0])
	return s.liveBuf
}
func (s *polySystem) Alive(id sim.NodeID) bool           { return s.sc.Engine.Alive(id) }
func (s *polySystem) Position(id sim.NodeID) space.Point { return s.sc.poly.Position(id) }
func (s *polySystem) Guests(id sim.NodeID) []space.Point {
	s.guestBuf = s.sc.poly.AppendGuests(id, s.guestBuf[:0])
	return s.guestBuf
}
func (s *polySystem) NumGuests(id sim.NodeID) int { return s.sc.poly.NumGuests(id) }
func (s *polySystem) NumGhosts(id sim.NodeID) int { return s.sc.poly.NumGhosts(id) }
func (s *polySystem) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	s.sc.topo.EachNeighbor(id, k, yield)
}

// tmanSystem adapts the baseline: a node's single "guest" is its fixed
// position and it stores no ghosts (paper Sec. IV-A). guestBuf backs the
// single-point Guests answer so metric sweeps do not allocate per node.
type tmanSystem struct {
	sc       *Scenario
	liveBuf  []sim.NodeID
	guestBuf [1]space.Point
}

func (s *tmanSystem) Space() space.Space { return s.sc.Space }
func (s *tmanSystem) Live() []sim.NodeID {
	s.liveBuf = s.sc.Engine.AppendLiveIDs(s.liveBuf[:0])
	return s.liveBuf
}
func (s *tmanSystem) Alive(id sim.NodeID) bool           { return s.sc.Engine.Alive(id) }
func (s *tmanSystem) Position(id sim.NodeID) space.Point { return s.sc.position(id) }
func (s *tmanSystem) Guests(id sim.NodeID) []space.Point {
	s.guestBuf[0] = s.sc.position(id)
	return s.guestBuf[:]
}
func (s *tmanSystem) NumGuests(sim.NodeID) int { return 1 }
func (s *tmanSystem) NumGhosts(sim.NodeID) int { return 0 }
func (s *tmanSystem) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	s.sc.topo.EachNeighbor(id, k, yield)
}
