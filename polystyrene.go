// Package polystyrene is a from-scratch Go implementation of Polystyrene
// (Bouget, Kervadec, Kermarrec & Taïani, ICDCS 2014): a decentralized,
// shape-preserving overlay layer that survives catastrophic correlated
// failures. It bundles the full stack the paper builds on — a Cyclon-style
// peer-sampling service, the T-Man topology-construction protocol, a
// round-based simulation engine — plus the Polystyrene layer itself:
// projection, backup, recovery and migration (Secs. III-C to III-F).
//
// The package exposes a plain-Go facade over the internal packages. A
// System is a network of simulated nodes holding the data points that
// define a target shape (a torus, a ring, a profile space ...), wired by
// the same scenario.Stack the paper's evaluation harness runs on: a
// System over the paper's torus grid follows the harness's trajectory
// node for node. Nodes
// converge so that each is linked to its closest peers; when a whole
// region of the network crashes, the survivors adopt the orphaned data
// points from their replicas and migrate onto them, restoring the shape:
//
//	shape := polystyrene.TorusShape(40, 20, 1)
//	sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
//		Space:             polystyrene.Torus(40, 20),
//		Shape:             shape,
//		ReplicationFactor: 4,
//	})
//	sys.Run(20)                                            // converge
//	sys.CrashRegion(func(p []float64) bool { return p[0] >= 20 })
//	sys.Run(10)                                            // reshape
//	fmt.Println(sys.Homogeneity(), "<", sys.ReferenceHomogeneity())
//
// # Neighbour queries
//
// The overlay's closest-peer query is the facade's hottest read, so it
// comes in two allocation-free primary forms mirroring the internal
// core.Topology contract: AppendNeighbors (append into a caller-owned,
// typically pooled, buffer) and EachNeighbor (zero-copy visitor). The
// classic Neighbors form remains as a thin wrapper that allocates a fresh
// slice per call. Point lookups (Lookup) ride the same machinery: a
// greedy EachNeighbor-driven descent over the overlay, the walk a served
// epoch takes too, with LookupExact as the full-scan oracle. The descent
// evaluates O(probes + hops·k) distances; choosing its seeds reads every
// node's liveness once into a reused buffer, without copying or sorting
// the live set. LookupExact evaluates a distance for every live node.
// Once that buffer has grown, neither allocates in proportion to the
// system's size.
//
// # Determinism
//
// Everything is deterministic given SystemConfig.Seed: two systems with
// equal configs evolve identically, across processes and machines. With
// SystemConfig.ExchangeParallelism >= 1, rounds additionally execute
// their pair-wise gossip exchanges in concurrent batches of node-disjoint
// pairs — and results remain byte-identical at every worker count >= 1,
// so the knob only changes throughput, never outcomes. The sequential
// engine (the 0 default) follows its own, equally deterministic,
// trajectory. The package uses only the standard library and runs
// comfortably at the paper's largest scale (51 200 nodes) on a laptop.
package polystyrene

import (
	"fmt"
	"math"

	"polystyrene/internal/core"
	"polystyrene/internal/fd"
	"polystyrene/internal/metrics"
	"polystyrene/internal/scenario"
	"polystyrene/internal/serve"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// SpaceSpec selects the metric data space of a System. Construct specs
// with Euclidean, Torus, Ring or Hamming.
type SpaceSpec struct {
	kind   string
	dim    int
	widths []float64
}

// Euclidean returns the Euclidean space R^dim.
func Euclidean(dim int) SpaceSpec { return SpaceSpec{kind: "euclidean", dim: dim} }

// Torus returns a flat 2D torus with the given circumferences. This is the
// space of the paper's evaluation.
func Torus(width, height float64) SpaceSpec {
	return SpaceSpec{kind: "torus", widths: []float64{width, height}}
}

// Ring returns a 1D modular key space of the given circumference, as used
// by ring overlays (Chord, Pastry).
func Ring(circumference float64) SpaceSpec {
	return SpaceSpec{kind: "torus", widths: []float64{circumference}}
}

// Hamming returns the Hamming space over 0/1 vectors of the given length —
// a profile space for semantic overlays (Sec. III-A).
func Hamming(dim int) SpaceSpec { return SpaceSpec{kind: "hamming", dim: dim} }

func (s SpaceSpec) build() (space.Space, error) {
	switch s.kind {
	case "euclidean":
		if s.dim <= 0 {
			return nil, fmt.Errorf("polystyrene: Euclidean space needs dim > 0")
		}
		return space.NewEuclidean(s.dim), nil
	case "torus":
		return space.NewTorus(s.widths...), nil
	case "hamming":
		if s.dim <= 0 {
			return nil, fmt.Errorf("polystyrene: Hamming space needs dim > 0")
		}
		return space.NewHamming(s.dim), nil
	default:
		return nil, fmt.Errorf("polystyrene: empty SpaceSpec (use Euclidean, Torus, Ring or Hamming)")
	}
}

// TorusShape returns the w x h regular grid shape of the paper's
// evaluation: one data point per grid cell, step units apart, living on
// Torus(w*step, h*step).
func TorusShape(w, h int, step float64) [][]float64 {
	pts := space.TorusGrid(w, h, step)
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}

// RingShape returns n evenly spaced data points on Ring(circumference).
func RingShape(n int, circumference float64) [][]float64 {
	pts := space.RingPoints(n, circumference)
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}

// SystemConfig configures a System. Space and Shape are required.
type SystemConfig struct {
	// Seed makes the run reproducible (two systems with equal configs
	// evolve identically).
	Seed uint64
	// Space is the metric data space.
	Space SpaceSpec
	// Shape lists the initial data points; one node is created per point.
	Shape [][]float64
	// ReplicationFactor is K, the number of backup copies per data point
	// (default 4). Reliability under a failure of a fraction pf of the
	// system is approximately 1 - pf^(K+1) (Sec. III-D).
	ReplicationFactor int
	// Split selects the migration split function: "basic", "pd", "md" or
	// "advanced" (default "advanced", the paper's best).
	Split string
	// Baseline disables the Polystyrene layer and runs plain T-Man, for
	// comparisons.
	Baseline bool
	// DetectionDelay, when positive, replaces the perfect failure
	// detector with one that reports crashes only after that many rounds;
	// a negative delay is refused.
	DetectionDelay int
	// NeighborK is the overlay degree used by Neighbors-driven metrics
	// (default 4, as in the paper's figures).
	NeighborK int
	// ExchangeParallelism, when >= 1, runs rounds under intra-round
	// exchange batching with that many workers: each round's pair-wise
	// exchanges are partitioned into node-disjoint batches that step
	// concurrently. Results stay deterministic — byte-identical for every
	// value >= 1 under the same Seed — so the knob only changes
	// throughput. 0 (the default) keeps the sequential engine, whose
	// (equally deterministic) trajectory differs from the batched one. A
	// negative value is refused.
	ExchangeParallelism int
}

// System is a running Polystyrene network: the facade over the stack of
// internal/scenario, which it builds from its SystemConfig.
type System struct {
	cfg   SystemConfig
	space space.Space
	stack *scenario.Stack
	live  []sim.NodeID // Lookup's reused buffer of the live IDs, ascending
}

// NewSystem builds and wires a System; the initial population is one node
// per shape point, each hosting its point.
func NewSystem(cfg SystemConfig) (*System, error) {
	if len(cfg.Shape) == 0 {
		return nil, fmt.Errorf("polystyrene: SystemConfig.Shape is empty")
	}
	spc, err := cfg.Space.build()
	if err != nil {
		return nil, err
	}
	if cfg.ReplicationFactor == 0 {
		cfg.ReplicationFactor = core.DefaultK
	}
	if cfg.Split == "" {
		cfg.Split = "advanced"
	}
	if cfg.NeighborK < 0 {
		return nil, fmt.Errorf("polystyrene: SystemConfig.NeighborK is %d, want >= 0", cfg.NeighborK)
	}
	if cfg.DetectionDelay < 0 {
		return nil, fmt.Errorf("polystyrene: SystemConfig.DetectionDelay is %d, want >= 0", cfg.DetectionDelay)
	}
	if cfg.NeighborK == 0 {
		cfg.NeighborK = 4
	}
	splitKind, err := core.ParseSplitKind(cfg.Split)
	if err != nil {
		return nil, err
	}

	shape := make([]space.Point, len(cfg.Shape))
	for i, p := range cfg.Shape {
		if len(p) != spc.Dim() {
			return nil, fmt.Errorf("polystyrene: shape point %d has dimension %d, space wants %d",
				i, len(p), spc.Dim())
		}
		shape[i] = space.Point(p).Clone()
	}
	var det fd.Detector
	if cfg.DetectionDelay > 0 {
		det = fd.NewDelayed(cfg.DetectionDelay)
	}

	sys := &System{cfg: cfg, space: spc}
	sys.stack, err = scenario.NewStack(scenario.Config{
		Seed:                cfg.Seed,
		Polystyrene:         !cfg.Baseline,
		K:                   cfg.ReplicationFactor,
		Split:               splitKind,
		Detector:            det,
		ExchangeParallelism: cfg.ExchangeParallelism,
	}, spc, shape)
	if err != nil {
		return nil, err
	}

	return sys, nil
}

// Run executes n gossip rounds.
func (s *System) Run(n int) { s.stack.Run(n) }

// Close releases the engine's persistent exchange-worker pool. Call it
// when discarding a system built with ExchangeParallelism >= 2; it is
// idempotent, a no-op for sequential configurations, and the system
// stays fully usable afterwards (batched rounds simply execute inline).
func (s *System) Close() { s.stack.Close() }

// Round returns the number of completed rounds.
func (s *System) Round() int { return s.stack.Engine.Round() }

// NumLive returns the number of live nodes.
func (s *System) NumLive() int { return s.stack.Engine.NumLive() }

// Live returns the IDs of live nodes.
func (s *System) Live() []int {
	ids := s.stack.Engine.LiveIDs()
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// CrashNodes crashes the given nodes (crash-stop). Unknown or already dead
// IDs are ignored.
func (s *System) CrashNodes(ids ...int) {
	for _, id := range ids {
		s.stack.Engine.Kill(sim.NodeID(id))
	}
}

// CrashRegion crashes every live node whose current position satisfies the
// predicate — the paper's catastrophic correlated failure. It returns the
// number of crashed nodes. The predicate sees a copy of each position,
// valid only during the call: writing into it moves no node.
func (s *System) CrashRegion(in func(pos []float64) bool) int {
	return s.stack.FailRegion(func(p space.Point) bool { return in(p) })
}

// AddNodes injects fresh nodes at the given positions. Under Polystyrene
// they join empty-handed (no data point) and acquire points through
// migration; under Baseline they are ordinary fixed nodes. The batch is
// validated whole first: if any position has the wrong dimension,
// AddNodes returns an error and adds no node.
func (s *System) AddNodes(positions [][]float64) ([]int, error) {
	for _, p := range positions {
		if len(p) != s.space.Dim() {
			return nil, fmt.Errorf("polystyrene: position has dimension %d, space wants %d",
				len(p), s.space.Dim())
		}
	}
	out := make([]int, 0, len(positions))
	for _, p := range positions {
		// Pin the position before AddNode so InitNode can read it.
		s.stack.Pin(sim.NodeID(s.stack.Engine.NumNodes()), space.Point(p).Clone())
		id := s.stack.Engine.AddNode()
		out = append(out, int(id))
	}
	return out, nil
}

// NodePosition returns a node's current virtual position, or nil for an
// ID the system never created, such as Lookup's -1.
func (s *System) NodePosition(id int) []float64 {
	if id < 0 || id >= s.stack.Engine.NumNodes() {
		return nil
	}
	return s.stack.Position(sim.NodeID(id)).Clone()
}

// NodeGuests returns the data points a node currently hosts, or nil for
// an ID the system never created, such as Lookup's -1.
func (s *System) NodeGuests(id int) [][]float64 {
	if id < 0 || id >= s.stack.Engine.NumNodes() {
		return nil
	}
	poly := s.stack.Poly()
	if poly == nil {
		return [][]float64{s.NodePosition(id)}
	}
	guests := poly.Guests(sim.NodeID(id))
	out := make([][]float64, len(guests))
	for i, g := range guests {
		out[i] = g.Clone()
	}
	return out
}

// AppendNeighbors appends the k closest overlay neighbours of a node to
// dst, ordered by increasing distance, and returns the extended slice —
// the allocation-free primary form of the neighbour query (pass a pooled
// buffer). See also EachNeighbor for the zero-copy visitor form.
func (s *System) AppendNeighbors(dst []int, id, k int) []int {
	s.stack.Topology().EachNeighbor(sim.NodeID(id), k, func(nb sim.NodeID) bool {
		dst = append(dst, int(nb))
		return true
	})
	return dst
}

// EachNeighbor calls yield for the k closest overlay neighbours of a node
// in increasing distance order, stopping early when yield returns false,
// without materialising the list. yield must not call back into the
// System's topology (reading positions is fine).
func (s *System) EachNeighbor(id, k int, yield func(neighbor int) bool) {
	s.stack.Topology().EachNeighbor(sim.NodeID(id), k, func(nb sim.NodeID) bool {
		return yield(int(nb))
	})
}

// Neighbors returns the k closest overlay neighbours of a node as a fresh
// slice — a thin convenience wrapper over AppendNeighbors for callers
// without a reusable buffer. k <= 0 is an empty query.
func (s *System) Neighbors(id, k int) []int {
	return s.AppendNeighbors(make([]int, 0, max(k, 0)), id, k)
}

// Lookup returns a live node whose position is (locally) closest to the
// query point — the primitive a storage or routing layer builds on. It
// takes the walk an epoch's Lookup takes (internal/serve): the closest of
// a few evenly strided live nodes seeds a greedy descent over each node's
// 2·NeighborK closest overlay neighbours, which ends at the node none of
// whose live neighbours improves on it. On a converged shape that is the
// global nearest node; if the descent fails to terminate within its hop
// budget (a transiently broken overlay), Lookup falls back to the exact
// full-scan answer of LookupExact. The seeds are strided over the live
// IDs in ascending order, which one pass over the node IDs collects into
// a buffer the System reuses: O(nodes) cheap liveness reads plus the
// descent's O(probes + hops·k) distances, with no copy and no sort. That
// buffer makes Lookup unsafe for concurrent use; concurrent readers query
// a ServeSnapshot epoch instead.
//
// Lookup never panics on degenerate input: when the live set is empty
// (every node crashed — CrashRegion over the whole space), the query's
// dimension does not match the system's space, or a query coordinate is
// NaN or infinite (no node is at a finite distance from it), it returns
// the -1 sentinel, the same "no node" answer LookupExact gives. Callers
// must treat -1 as "nothing to route to", not as a node ID.
func (s *System) Lookup(query []float64) int {
	if !s.validQuery(query) {
		return -1
	}
	s.live = s.live[:0]
	for id := range sim.NodeID(s.stack.Engine.NumNodes()) {
		if s.stack.Engine.Alive(id) {
			s.live = append(s.live, id)
		}
	}
	if len(s.live) == 0 {
		return -1
	}
	q := space.Point(query)
	i, _ := serve.SeedDescent(len(s.live), func(i int) float64 {
		return s.space.Distance(q, s.stack.Position(s.live[i]))
	})
	// The descent needs a wider fanout than the metric neighbourhood: the
	// extra side-steps escape shallow local minima on a recovering
	// (half-density) shape.
	dest, _, _, converged := s.stack.Descend(s.live[i], q, 2*s.cfg.NeighborK)
	if !converged {
		return s.LookupExact(query)
	}
	return int(dest)
}

// LookupExact returns the live node whose position is globally closest to
// the query point, the lowest ID winning a tie, by scanning every node ID
// in ascending order — the O(nodes) oracle Lookup approximates (and
// falls back to). It allocates nothing. Like Lookup it returns the -1
// sentinel, never panicking, when the system is empty, the query's
// dimension does not match the space or a query coordinate is not finite.
func (s *System) LookupExact(query []float64) int {
	if !s.validQuery(query) {
		return -1
	}
	best, bestD := -1, 0.0
	q := space.Point(query)
	for id := range sim.NodeID(s.stack.Engine.NumNodes()) {
		if !s.stack.Engine.Alive(id) {
			continue
		}
		d := s.space.Distance(q, s.stack.Position(id))
		if best < 0 || d < bestD {
			best, bestD = int(id), d
		}
	}
	return best
}

// validQuery reports whether query is a point of the system's space: the
// space's dimension, every coordinate finite.
func (s *System) validQuery(query []float64) bool {
	if len(query) != s.space.Dim() {
		return false
	}
	for _, v := range query {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Homogeneity measures how well the original shape is preserved: the mean
// distance from each original data point to the nearest node hosting it
// (Sec. IV-A). Lower is better; see ReferenceHomogeneity for the target.
func (s *System) Homogeneity() float64 { return s.stack.Homogeneity() }

// ReferenceHomogeneity returns H, the homogeneity an ideal distribution of
// the current live population would reach on a 2D torus (only meaningful
// for 2D toruses; other spaces return a best-effort analogue using the
// shape size as area).
func (s *System) ReferenceHomogeneity() float64 {
	if t, ok := s.space.(space.Torus); ok && t.Dim() == 2 {
		return metrics.ReferenceHomogeneity(t.Area(), s.NumLive())
	}
	return metrics.ReferenceHomogeneity(float64(len(s.stack.Points)), s.NumLive())
}

// Proximity is the mean distance between each node and its NeighborK
// closest overlay neighbours (lower is better).
func (s *System) Proximity() float64 {
	return metrics.Proximity(s.stack.System(), s.cfg.NeighborK)
}

// Reliability returns the fraction of the original data points still
// hosted by a live node.
func (s *System) Reliability() float64 { return s.stack.Reliability() }

// DataPointsPerNode returns the mean number of stored points (guests plus
// ghost replicas) per live node — the paper's memory-overhead metric.
func (s *System) DataPointsPerNode() float64 {
	return metrics.DataPointsPerNode(s.stack.System())
}

// LastRoundMessageCost returns the communication units charged during the
// most recently completed round, averaged per live node (Sec. IV-A cost
// model: 1 unit per node ID and per coordinate).
func (s *System) LastRoundMessageCost() float64 {
	e := s.stack.Engine
	if e.Round() == 0 {
		return 0
	}
	return metrics.MessageCostPerNode(e, e.Round()-1)
}
