package scenario

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"polystyrene/internal/core"
	"polystyrene/internal/metrics"
	"polystyrene/internal/rps"
	"polystyrene/internal/serve"
	"polystyrene/internal/shape"
	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
	"polystyrene/internal/tman"
)

// Stack is the paper's layer stack (Figs. 2/3) wired over one engine and
// one target shape: peer sampling, then topology construction (T-Man),
// then — unless Config.Polystyrene is false, the plain baseline — the
// Polystyrene layer. Scenario and the polystyrene facade both run on a
// Stack; it owns the stack's construction, its node positions (the pins
// of late joiners included), its metrics and serving views, its region
// crashes and the checkpoint layout, and leaves scripts, the
// configuration digest and any further checkpoint sections to its owner.
type Stack struct {
	Engine *sim.Engine
	// Points are the original data points — the target shape. Index i is
	// the original position of node i. PointIDs carries their interned
	// identities in lockstep: the stack owns the interner shared with the
	// Polystyrene layer, so the indexed metrics resolve the same IDs the
	// protocol maintains.
	Points   []space.Point
	PointIDs []space.PointID
	Interner *space.Interner

	spc     space.Space
	sampler *rps.Protocol
	topo    *tman.Protocol
	poly    *core.Protocol // nil when running the plain baseline
	// fixedPos holds the pinned positions of nodes that joined after
	// set-up (id >= len(Points)); see Pin. It travels in checkpoints.
	fixedPos map[sim.NodeID]space.Point

	// sys is the persistent metrics view; its buffers are reused across
	// rounds. holders is the guests⁻¹ index the metrics read: the
	// Polystyrene layer, or the baseline's pinHolders. row is FailRegion's
	// copy of the position under test.
	sys     *systemView
	holders metrics.HolderIndex
	row     space.Point
}

// NewStack wires the stack for cfg over spc and creates one node per
// shape point, node i starting at points[i] (hosting it under
// Polystyrene). A later node joins at its pin (see Pin) or, unpinned, on
// the reinjection grid. Of cfg, NewStack reads the layer and engine knobs
// (Seed, Polystyrene, K, Split, Detector, ExchangeParallelism); the grid
// size and metric settings belong to the owner. T-Man runs with the
// paper's defaults.
func NewStack(cfg Config, spc space.Space, points []space.Point) (*Stack, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Stack{
		Points:   points,
		Interner: space.NewInterner(),
		spc:      spc,
		sampler:  rps.New(rps.Config{}),
		fixedPos: make(map[sim.NodeID]space.Point),
	}
	s.sys = &systemView{s: s}
	// The shape registers into the interner once at setup
	// (intern-before-use); the IDs feed the indexed metrics.
	s.PointIDs = shape.Intern(s.Interner, points)

	topo, err := tman.New(tman.Config{Space: spc, Sampler: s.sampler, Position: s.Position})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s.topo = topo

	layers := []sim.Protocol{s.sampler, s.topo}
	if cfg.Polystyrene {
		poly, err := core.New(core.Config{
			Space:        spc,
			Topology:     s.topo,
			Sampler:      s.sampler,
			Detector:     cfg.Detector,
			Interner:     s.Interner,
			K:            cfg.K,
			Split:        cfg.Split,
			InitialPoint: s.initialPoint,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		s.poly = poly
		s.holders = poly
		layers = append(layers, poly)
	} else {
		s.holders = &pinHolders{s: s, nodes: -1}
	}

	s.Engine = sim.New(cfg.Seed, layers...)
	s.Engine.SetExchangeParallelism(cfg.ExchangeParallelism)
	s.Engine.AddNodes(len(points))
	return s, nil
}

// initialPoint supplies a joining node's original position. Nodes of the
// initial population seed their own data point; later nodes start empty
// at their join position.
func (s *Stack) initialPoint(id sim.NodeID) (space.Point, bool) {
	if int(id) < len(s.Points) {
		return s.Points[id], true
	}
	return s.joinPosition(id), false
}

// Position is the PositionFunc fed to the overlay: the Polystyrene
// projection when enabled, otherwise the node's fixed original (or join)
// position. The serving capture calls it once per live node, so the
// Polystyrene branch stays ahead of any pin lookup.
func (s *Stack) Position(id sim.NodeID) space.Point {
	if s.poly != nil {
		return s.poly.Position(id)
	}
	if int(id) < len(s.Points) {
		return s.Points[id]
	}
	return s.joinPosition(id)
}

// Pin fixes where node id, joining after set-up, sits: under Polystyrene
// it joins empty-handed there, under the baseline it stays there.
func (s *Stack) Pin(id sim.NodeID, p space.Point) { s.fixedPos[id] = p }

// joinPosition places a node that arrives after set-up: at its pin, or
// else on the reinjection grid.
func (s *Stack) joinPosition(id sim.NodeID) space.Point {
	if p, ok := s.fixedPos[id]; ok {
		return p
	}
	return s.reinjectionPosition(id)
}

// reinjectionPosition places node id on a grid parallel to the original,
// shifted by half a step in both dimensions (Sec. IV-A phase 3: new nodes
// are "positioned uniformly on the torus, on a grid parallel to the
// original one"). Consecutive reinjected nodes take every other cell of
// the grid, so reinjecting N/2 nodes covers the whole torus uniformly at
// half density; a second wave fills the remaining cells. It assumes the
// scenario's torus grid: the facade, whose shape is arbitrary, pins
// every joiner.
func (s *Stack) reinjectionPosition(id sim.NodeID) space.Point {
	idx := int(id) - len(s.Points)
	n := len(s.Points)
	cell := ((2*idx)%n + (2 * idx / n)) % n
	base := s.Points[cell]
	const half = gridStep / 2
	return s.spc.(space.Torus).Wrap(space.Point{base[0] + half, base[1] + half})
}

// Run executes n rounds.
func (s *Stack) Run(n int) { s.Engine.RunRounds(n) }

// Close releases the engine's persistent exchange-worker pool. Call it
// when discarding a stack whose ExchangeParallelism was >= 2 (the
// measurement helpers do this for the scenarios they own); it is idempotent
// and a no-op for sequential configurations. The stack stays readable
// — metrics, snapshots and even further (inline-executed) rounds all
// still work.
func (s *Stack) Close() { s.Engine.Close() }

// Topology exposes the topology-construction layer (for snapshots, tests
// and application layers such as routing).
func (s *Stack) Topology() core.Topology { return s.topo }

// Poly exposes the Polystyrene layer, nil in the baseline configuration.
func (s *Stack) Poly() *core.Protocol { return s.poly }

// FailRegion crashes every live node whose current position satisfies the
// predicate, returning how many crashed. The predicate sees a copy of
// each position, valid only during the call: writing into it moves no
// node.
func (s *Stack) FailRegion(in func(space.Point) bool) int {
	killed := 0
	for _, id := range s.Engine.LiveIDs() {
		s.row = append(s.row[:0], s.Position(id)...)
		if in(s.row) {
			s.Engine.Kill(id)
			killed++
		}
	}
	return killed
}

// System returns the metrics view of the stack. The view is persistent
// and reuses internal live-ID and guest buffers across calls.
func (s *Stack) System() metrics.System { return s.sys }

// Homogeneity computes the current homogeneity of the target shape
// through the stack's holders index.
func (s *Stack) Homogeneity() float64 {
	return metrics.HomogeneityIndexed(s.sys, s.holders, s.Points, s.PointIDs)
}

// Reliability returns the fraction of original data points still hosted.
func (s *Stack) Reliability() float64 {
	return metrics.ReliabilityIndexed(s.sys, s.holders, s.PointIDs)
}

// pinHolders is the baseline's holders index. A baseline node's one
// "guest" is its fixed position, so a data point's holders are the nodes
// whose position is that point, bit for bit: found with Interner.Lookup,
// which registers nothing. Those positions change only when nodes join or
// a restore replaces the pins, so the table is rebuilt only when the node
// count differs from the one it was built for; RestoreCheckpoint marks it
// stale. Dead nodes stay listed; the metrics skip them.
type pinHolders struct {
	s     *Stack
	nodes int // the node count the table was built for, -1 when stale
	of    [][]sim.NodeID
}

func (h *pinHolders) HoldersOf(pid space.PointID) []sim.NodeID {
	if n := h.s.Engine.NumNodes(); n != h.nodes {
		h.nodes = n
		h.of = make([][]sim.NodeID, h.s.Interner.Len())
		for id := range sim.NodeID(n) {
			if p, ok := h.s.Interner.Lookup(h.s.Position(id)); ok {
				h.of[p] = append(h.of[p], id)
			}
		}
	}
	return h.of[pid]
}

// systemView adapts the stack to metrics.System. liveBuf and guestBuf
// back Live and Guests so per-round metric sweeps reuse two allocations
// instead of cloning per node. A baseline node's single "guest" is its
// fixed position and it stores no ghosts (paper Sec. IV-A).
type systemView struct {
	s        *Stack
	liveBuf  []sim.NodeID
	guestBuf []space.Point
}

func (v *systemView) Space() space.Space { return v.s.spc }
func (v *systemView) Live() []sim.NodeID {
	v.liveBuf = v.s.Engine.AppendLiveIDs(v.liveBuf[:0])
	return v.liveBuf
}
func (v *systemView) Alive(id sim.NodeID) bool           { return v.s.Engine.Alive(id) }
func (v *systemView) Position(id sim.NodeID) space.Point { return v.s.Position(id) }
func (v *systemView) Guests(id sim.NodeID) []space.Point {
	if v.s.poly == nil {
		v.guestBuf = append(v.guestBuf[:0], v.s.Position(id))
	} else {
		v.guestBuf = v.s.poly.AppendGuests(id, v.guestBuf[:0])
	}
	return v.guestBuf
}
func (v *systemView) NumGuests(id sim.NodeID) int {
	if v.s.poly == nil {
		return 1
	}
	return v.s.poly.NumGuests(id)
}
func (v *systemView) NumGhosts(id sim.NodeID) int {
	if v.s.poly == nil {
		return 0
	}
	return v.s.poly.NumGhosts(id)
}
func (v *systemView) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	v.s.topo.EachNeighbor(id, k, yield)
}

// sourceView adapts the stack to serve.Source, so the round loop can
// publish epochs from the engine it advances. All methods run on the
// round-driving goroutine while the engine is quiescent. A baseline
// stack has no data layer: it serves positions and topology only, with
// zero guests and an empty holders universe.
type sourceView struct{ s *Stack }

func (v sourceView) Space() space.Space { return v.s.spc }
func (v sourceView) Round() int         { return v.s.Engine.Round() }
func (v sourceView) NumNodes() int      { return v.s.Engine.NumNodes() }

func (v sourceView) AppendLive(dst []sim.NodeID) []sim.NodeID {
	return v.s.Engine.AppendLiveIDs(dst)
}

func (v sourceView) Position(id sim.NodeID) space.Point { return v.s.Position(id) }

func (v sourceView) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	v.s.topo.EachNeighbor(id, k, yield)
}

func (v sourceView) NumGuests(id sim.NodeID) int {
	if v.s.poly == nil {
		return 0
	}
	return v.s.poly.NumGuests(id)
}

func (v sourceView) NumGhosts(id sim.NodeID) int {
	if v.s.poly == nil {
		return 0
	}
	return v.s.poly.NumGhosts(id)
}

func (v sourceView) NumPoints() int {
	if v.s.poly == nil {
		return 0
	}
	return v.s.Interner.Len()
}

func (v sourceView) EachGuestID(id sim.NodeID, fn func(pid space.PointID)) {
	if v.s.poly == nil {
		return
	}
	v.s.poly.GuestsFunc(id, func(_ space.Point, pid space.PointID) { fn(pid) })
}

// ServeSource returns the stack's serve.Source adapter.
func (s *Stack) ServeSource() serve.Source { return sourceView{s} }

// ServePublisher creates a Publisher whose epochs carry a router view of
// serve.DefaultFanout neighbours per node, publishes an initial epoch of the
// current state so the service is answerable before the first round
// completes, and hooks the publisher to the engine's post-barrier
// publish point: every subsequent round ends by capturing and atomically
// swapping in a fresh epoch. The engine has a single publish hook, so a
// second call replaces the first wiring.
func (s *Stack) ServePublisher() *serve.Publisher {
	pub := serve.NewPublisher(serve.DefaultFanout)
	src := sourceView{s}
	pub.Publish(src)
	s.Engine.SetPublishHook(func(*sim.Engine, int) { pub.Publish(src) })
	return pub
}

// StopServing detaches the publish hook installed by ServePublisher.
func (s *Stack) StopServing() { s.Engine.SetPublishHook(nil) }

// WriteCheckpoint writes a checkpoint of the stack and its owner to w, in
// a snap envelope of the given kind: the owner's digest, the pinned
// positions, the owner's sections (nil when it has none) and the whole
// engine state. Restoring it into a freshly built owner of an equivalent
// configuration and running n more rounds is byte-identical to never
// having checkpointed, at every ExchangeParallelism setting.
func (s *Stack) WriteCheckpoint(w io.Writer, kind string, digest, sections func(*snap.Writer)) error {
	var sw snap.Writer
	digest(&sw)
	writePinned(&sw, s.fixedPos)
	if sections != nil {
		sections(&sw)
	}
	if err := s.Engine.SnapshotState(&sw); err != nil {
		return err
	}
	return sw.WriteEnvelope(w, kind)
}

// RestoreCheckpoint loads a checkpoint of the given kind into the stack.
// check reads its digest and returns why it does not match the owner's,
// or nil; stage (nil when the owner has no sections) reads the owner's
// sections into temporaries, which the owner installs once
// RestoreCheckpoint returns nil. The envelope's checksum and version, the
// digest, the pins and the owner's sections are all verified before any
// state is touched, so a corrupted, truncated or mismatched checkpoint is
// refused with the stack and its owner as they were. A pin must name a
// joiner the engine state declares and have the space's dimension, and
// under the baseline every such joiner must have one.
//
// One case is not covered: a well-formed body that is refused once the
// engine has begun to restore — a protocol layer refuses its section, or
// bytes trail the engine state; a crafted file or a foreign build's can
// do either — leaves the engine partly restored (its round, liveness and
// meter and the layers before the refusing one already replaced) while
// the pins and the owner's sections keep their old values. Discard the
// owner after such an error.
func (s *Stack) RestoreCheckpoint(rd io.Reader, kind string, check func(*snap.Reader) error, stage func(*snap.Reader)) error {
	r, err := snap.ReadEnvelope(rd, kind)
	if err != nil {
		return err
	}
	mismatch := check(r)
	pinned := readPinned(r)
	if stage != nil {
		stage(r)
	}
	if err := r.Err(); err != nil {
		return err
	}
	if mismatch != nil {
		return mismatch
	}
	if err := s.checkPins(pinned, sim.SnapshotNodeCount(*r)); err != nil {
		return fmt.Errorf("%s snapshot: %w", kind, err)
	}

	if err := s.Engine.RestoreState(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%s snapshot: %d trailing bytes after the engine state", kind, r.Remaining())
	}
	s.fixedPos = pinned
	if h, ok := s.holders.(*pinHolders); ok {
		h.nodes = -1
	}
	return nil
}

// checkPins returns why pinned, the pins of a checkpoint whose engine
// state declares nodes nodes, cannot serve this stack, or nil. A pin must
// name a joiner — an id in [len(Points), nodes) — and have the space's
// dimension. Under the baseline every joiner must have one: a baseline
// joiner stays at its position, and without a pin it would fall back to
// the reinjection grid, which assumes the scenario's torus grid. Under
// Polystyrene the layer owns every position, and a pin is never read. It
// reports the smallest offending id.
func (s *Stack) checkPins(pinned map[sim.NodeID]space.Point, nodes int) error {
	first := len(s.Points)
	bad, found := sim.NodeID(0), false
	for id, p := range pinned {
		if (int(id) < first || int(id) >= nodes || len(p) != s.spc.Dim()) && (!found || id < bad) {
			bad, found = id, true
		}
	}
	if found {
		return fmt.Errorf("pin for node %d of dimension %d: pins are for joiners, ids [%d,%d), of dimension %d",
			bad, len(pinned[bad]), first, nodes, s.spc.Dim())
	}
	if s.poly != nil || len(pinned) >= nodes-first {
		return nil
	}
	// Fewer pins than joiners: one of the first len(pinned)+1 has none.
	for id := sim.NodeID(first); ; id++ {
		if _, ok := pinned[id]; !ok {
			return fmt.Errorf("joiner %d of %d nodes has no pin", id, nodes)
		}
	}
}

// writePinned writes the pinned-position section: the count, then every
// (node id, point) pair in ascending id order.
func writePinned(w *snap.Writer, pinned map[sim.NodeID]space.Point) {
	ids := slices.Sorted(maps.Keys(pinned))
	w.Count(len(ids))
	for _, id := range ids {
		w.I32(int(id))
		p := pinned[id]
		w.Count(len(p))
		for _, c := range p {
			w.F64(c)
		}
	}
}

// readPinned reads a section written by writePinned. On a malformed
// section the reader's error is set and the map is partial.
func readPinned(r *snap.Reader) map[sim.NodeID]space.Point {
	n := r.Count(8)
	pinned := make(map[sim.NodeID]space.Point, n)
	for i := 0; i < n; i++ {
		id := sim.NodeID(r.I32())
		p := make(space.Point, r.Count(8))
		for j := range p {
			p[j] = r.F64()
		}
		pinned[id] = p
	}
	return pinned
}
