// Package sim provides the cycle-driven simulation engine the evaluation
// runs on. It is our substitute for PeerSim (Montresor & Jelasity, P2P'09),
// which the paper used: protocols are layered, the engine steps every live
// node once per layer per round (in a random order drawn fresh each round),
// the driver applies catastrophic failures and node reinjection between
// rounds (Kill, AddNodes), and a cost meter records the communication units
// each layer spends, using the paper's unit model (1 node ID = 1 coordinate
// = 1 unit).
//
// The engine is sequential by default: gossip exchanges are pair-wise
// atomic by construction ("q should not be interacting with anyone else
// than p while the exchange occurs", Sec. III-F), and sequential execution
// with a seeded PRNG makes every experiment exactly reproducible. Because
// exchanges are pair-atomic, steps touching disjoint node sets commute,
// and SetExchangeParallelism opts a run into intra-round batching: a
// deterministic greedy matcher partitions each round's shuffled step order
// into batches of node-disjoint exchanges that execute across a persistent
// worker pool — n-1 goroutines parked on wake channels across batches and
// rounds, the engine goroutine itself being worker slot 0 — while batches
// smaller than twice the worker count (the conflict-bound tail of a round)
// run inline on slot 0 and skip the dispatch (see parallel.go). Same-seed
// results are byte-identical at every worker count, though the batched
// trajectory differs from the sequential one (per-step randomness is
// pre-split instead of drawn from one shared stream).
//
// An engine runs one simulation: it is built by New and driven from
// outside. Engines configured with exchange parallelism >= 2 hold pool
// goroutines; Close releases them.
//
// The engine is built for full-paper-scale (51,200-node) sweeps: the live
// population is tracked in a dense swap-remove set so RandomLive is O(1)
// and LiveIDs touches only survivors even after a catastrophe kills most
// of the fleet, the per-round step order is shuffled once per round into a
// reused buffer shared by all layers, and the meter accumulates costs in
// flat per-layer round ledgers instead of nested maps.
package sim

import (
	"slices"

	"polystyrene/internal/xrand"
)

// NodeID identifies a node for the lifetime of a simulation. IDs are dense
// indices assigned in creation order and are never reused.
type NodeID int

// None is the sentinel for "no node".
const None NodeID = -1

// Protocol is one layer of the simulated stack (e.g. peer sampling,
// topology construction, Polystyrene). The engine owns scheduling; each
// protocol owns its per-node state, indexed by NodeID.
type Protocol interface {
	// Name identifies the layer in cost reports.
	Name() string
	// InitNode is invoked exactly once per node, when the node joins
	// (including nodes reinjected mid-run). Layers are initialised in
	// stack order, bottom first.
	InitNode(e *Engine, id NodeID)
	// Step executes one round of the protocol on behalf of node id. It is
	// only called for live nodes.
	Step(e *Engine, id NodeID)
}

// Observer is called after every completed round, before the publish hook
// and before control returns to the driver.
type Observer func(e *Engine, round int)

// Engine drives a layered gossip simulation.
type Engine struct {
	rng    *xrand.Rand
	layers []Protocol
	// alive[id] reports liveness; live is the dense, unordered set of live
	// IDs and livePos[id] is id's index in live (-1 when dead), so Kill is
	// a swap-remove and RandomLive a single bounded draw.
	alive   []bool
	live    []NodeID
	livePos []int32
	round   int

	observers []Observer
	// publish is the post-barrier publish hook (see SetPublishHook); nil
	// when no serving surface is attached.
	publish func(e *Engine, round int)

	meter *Meter
	// curLayer is the meter ledger index costs are attributed to; -1 means
	// outside any protocol (the "external" pseudo-layer).
	curLayer int
	// layerLedger[i] is the meter ledger index of layers[i].
	layerLedger []int
	// order is the per-round step-order buffer, reused across rounds.
	order []NodeID

	// exWorkers is the intra-round exchange worker count (0 = sequential),
	// wctx the per-worker step contexts, bs the pooled batch-scheduling
	// scratch and seqCtx the shared context of sequential steps (its
	// stream is the engine generator itself, so routing the sequential
	// path through StepCtx changes nothing observable). pool holds the
	// persistent exchange workers (exWorkers-1 parked goroutines; the
	// engine goroutine is slot 0).
	exWorkers int
	wctx      []*StepCtx
	bs        batchState
	seqCtx    *StepCtx
	pool      exPool
}

// New returns an engine seeded with seed and running the given layers,
// bottom layer first.
func New(seed uint64, layers ...Protocol) *Engine {
	e := &Engine{
		rng:      xrand.New(seed),
		layers:   layers,
		meter:    newMeter(),
		curLayer: -1,
	}
	e.layerLedger = make([]int, len(layers))
	for i, l := range layers {
		e.layerLedger[i] = e.meter.ledgerIndex(l.Name())
	}
	e.seqCtx = &StepCtx{e: e, rng: e.rng}
	// Slot 0 doubles as the inline-execution context when a batched pass
	// degenerates to a single worker.
	e.wctx = []*StepCtx{{e: e, rng: xrand.New(0), batched: true}}
	return e
}

// SeqCtx returns the engine's sequential step context: worker slot 0,
// randomness drawn straight from the engine generator, charges applied
// immediately. Protocol code written once against StepCtx runs the legacy
// sequential semantics byte-identically through it.
func (e *Engine) SeqCtx() *StepCtx { return e.seqCtx }

// Rand exposes the engine's deterministic random source. Protocols should
// draw all randomness from it (or from generators Split from it) so that a
// run is fully determined by the engine seed.
func (e *Engine) Rand() *xrand.Rand { return e.rng }

// Round returns the index of the round currently executing (or about to).
func (e *Engine) Round() int { return e.round }

// AddNode creates a new live node and initialises every layer for it. It
// returns the new node's ID. A node added while a round is executing joins
// the step rotation from the next round.
func (e *Engine) AddNode() NodeID {
	id := NodeID(len(e.alive))
	e.alive = append(e.alive, true)
	e.livePos = append(e.livePos, int32(len(e.live)))
	e.live = append(e.live, id)
	prev := e.curLayer
	for i, l := range e.layers {
		e.curLayer = e.layerLedger[i]
		l.InitNode(e, id)
	}
	e.curLayer = prev
	return id
}

// AddNodes creates n nodes and returns their IDs.
func (e *Engine) AddNodes(n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = e.AddNode()
	}
	return ids
}

// NumNodes returns how many nodes have ever been created.
func (e *Engine) NumNodes() int { return len(e.alive) }

// NumLive returns how many nodes are currently alive.
func (e *Engine) NumLive() int { return len(e.live) }

// Alive reports whether id is a live node. Unknown IDs are not alive.
func (e *Engine) Alive(id NodeID) bool {
	return id >= 0 && int(id) < len(e.alive) && e.alive[id]
}

// Kill crashes node id (crash-stop: it never recovers). Killing a dead or
// unknown node is a no-op, mirroring the idempotence of real crashes.
func (e *Engine) Kill(id NodeID) {
	if !e.Alive(id) {
		return
	}
	e.alive[id] = false
	p := e.livePos[id]
	last := e.live[len(e.live)-1]
	e.live[p] = last
	e.livePos[last] = p
	e.live = e.live[:len(e.live)-1]
	e.livePos[id] = -1
}

// KillAll crashes every node in ids.
func (e *Engine) KillAll(ids []NodeID) {
	for _, id := range ids {
		e.Kill(id)
	}
}

// LiveIDs returns the IDs of all live nodes in ascending order. The
// returned slice is a fresh copy the caller may retain or mutate; its cost
// scales with the number of survivors, not with every node ever created.
func (e *Engine) LiveIDs() []NodeID {
	return e.AppendLiveIDs(make([]NodeID, 0, len(e.live)))
}

// AppendLiveIDs appends the IDs of all live nodes in ascending order to
// dst and returns the extended slice — the allocation-free variant of
// LiveIDs for callers that sweep the population every round with a
// reusable buffer. Only the appended region is sorted.
func (e *Engine) AppendLiveIDs(dst []NodeID) []NodeID {
	n := len(dst)
	dst = append(dst, e.live...)
	slices.Sort(dst[n:])
	return dst
}

// LiveAt returns the i-th entry of the dense (unordered) live set,
// 0 <= i < NumLive(). It exposes the exact indexing RandomLive and
// StepCtx.RandomLive draw against, so batch-plan mirrors can replicate a
// draw without consuming the engine stream.
func (e *Engine) LiveAt(i int) NodeID { return e.live[i] }

// RandomLive returns a uniformly random live node, or None when the system
// is empty. It is O(1) regardless of how many nodes have died.
func (e *Engine) RandomLive() NodeID {
	if len(e.live) == 0 {
		return None
	}
	return e.live[e.rng.Intn(len(e.live))]
}

// Observe registers an observer called after every round.
func (e *Engine) Observe(o Observer) {
	e.observers = append(e.observers, o)
}

// SetPublishHook registers fn as the engine's post-barrier publish point:
// it runs exactly once at the very end of every round — after all layers
// have stepped (every batched pass has flushed its deferred work) and
// after every observer has run — with the index of the round that just
// completed. This is where a serving surface copies the engine's read
// state into an immutable epoch and swaps it in for concurrent readers:
// the hook runs on the round-driving goroutine, so it sees a quiescent,
// fully-flushed engine, and nothing the readers do can block the loop.
// One hook is supported; fn == nil clears it.
func (e *Engine) SetPublishHook(fn func(e *Engine, round int)) { e.publish = fn }

// Meter returns the engine's communication cost meter.
func (e *Engine) Meter() *Meter { return e.meter }

// Charge records cost units spent by the protocol currently stepping.
// Calling Charge outside a protocol step or init attributes the cost to
// the pseudo-layer "external".
func (e *Engine) Charge(units int) {
	idx := e.curLayer
	if idx < 0 {
		idx = e.meter.ledgerIndex("external")
	}
	e.meter.charge(idx, e.round, units)
}

// RunRounds executes n rounds. Each round steps each layer bottom-up,
// visiting live nodes in a random order drawn once per round and shared
// by all layers.
func (e *Engine) RunRounds(n int) {
	for i := 0; i < n; i++ {
		e.runOne()
	}
}

// RunUntil executes rounds until stop returns true (checked after each
// round's observers) or maxRounds have elapsed. It returns the number of
// rounds executed and whether stop was satisfied.
func (e *Engine) RunUntil(maxRounds int, stop func(e *Engine, round int) bool) (int, bool) {
	for i := 0; i < maxRounds; i++ {
		round := e.round
		e.runOne()
		if stop(e, round) {
			return i + 1, true
		}
	}
	return maxRounds, false
}

func (e *Engine) runOne() {
	// One shuffle per round, into a buffer reused across rounds; every
	// layer walks the same order. A node may die mid-round (killed by a
	// peer's step in extended protocols), hence the aliveness guard.
	e.order = append(e.order[:0], e.live...)
	e.rng.Shuffle(len(e.order), func(i, j int) { e.order[i], e.order[j] = e.order[j], e.order[i] })

	for i, layer := range e.layers {
		e.curLayer = e.layerLedger[i]
		if bp, ok := layer.(Batched); ok && e.exWorkers > 0 && bp.Batchable() {
			e.runBatched(bp)
		} else {
			for _, id := range e.order {
				if e.alive[id] {
					layer.Step(e, id)
				}
			}
		}
		e.curLayer = -1
	}

	for _, o := range e.observers {
		o(e, e.round)
	}
	if e.publish != nil {
		e.publish(e, e.round)
	}
	e.round++
}

// Meter accumulates communication cost in abstract units, per layer and per
// round, following the paper's accounting model (Sec. IV-A): a node ID and
// a single coordinate both cost 1 unit, so a node descriptor (ID + 2D
// position) costs 3 units and a bare 2D data point costs 2.
//
// Storage is one flat ledger slice per layer, indexed by round — charging
// on the hot path is two slice indexings, with no map or allocation.
type Meter struct {
	index   map[string]int
	names   []string
	ledgers [][]int
	charged []bool
}

func newMeter() *Meter {
	return &Meter{index: make(map[string]int)}
}

// ledgerIndex returns the ledger slot for layer, registering it on first
// use.
func (m *Meter) ledgerIndex(layer string) int {
	if i, ok := m.index[layer]; ok {
		return i
	}
	i := len(m.names)
	m.index[layer] = i
	m.names = append(m.names, layer)
	m.ledgers = append(m.ledgers, nil)
	m.charged = append(m.charged, false)
	return i
}

func (m *Meter) charge(idx, round, units int) {
	ledger := m.ledgers[idx]
	for len(ledger) <= round {
		ledger = append(ledger, 0)
	}
	ledger[round] += units
	m.ledgers[idx] = ledger
	m.charged[idx] = true
}

// RoundCost returns the units layer spent in the given round.
func (m *Meter) RoundCost(layer string, round int) int {
	i, ok := m.index[layer]
	if !ok || round < 0 || round >= len(m.ledgers[i]) {
		return 0
	}
	return m.ledgers[i][round]
}

// TotalRoundCost returns the units all layers spent in the given round.
func (m *Meter) TotalRoundCost(round int) int {
	total := 0
	for _, ledger := range m.ledgers {
		if round >= 0 && round < len(ledger) {
			total += ledger[round]
		}
	}
	return total
}

// TotalCost returns the units layer has spent across all rounds.
func (m *Meter) TotalCost(layer string) int {
	i, ok := m.index[layer]
	if !ok {
		return 0
	}
	total := 0
	for _, units := range m.ledgers[i] {
		total += units
	}
	return total
}

// Unit costs of the paper's communication model.
const (
	// CostID is the cost of transmitting one node identifier.
	CostID = 1
	// CostCoord is the cost of transmitting one coordinate.
	CostCoord = 1
)

// DescriptorCost returns the cost of a node descriptor (ID + position) in
// a space of the given dimension: 3 units for the 2D torus.
func DescriptorCost(dim int) int { return CostID + dim*CostCoord }

// PointCost returns the cost of a bare data point of the given dimension:
// 2 units on the 2D torus.
func PointCost(dim int) int { return dim * CostCoord }
