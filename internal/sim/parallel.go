package sim

// Intra-round parallel exchange batching.
//
// The paper's gossip exchanges are pair-wise atomic: one step touches the
// initiator, its selected peer and (for Polystyrene's backup push) a few
// replication targets, and nothing else. Steps whose touched node sets are
// disjoint therefore commute, and a round can be partitioned into batches
// of mutually node-disjoint steps that execute concurrently without
// changing any result.
//
// The scheduler below does exactly that, while keeping the same-seed
// determinism contract: for a fixed seed, results are byte-identical at
// every worker count. Three mechanisms carry that guarantee:
//
//   - Pre-split randomness. Before a layer's batched pass, the engine
//     draws one 64-bit seed per step from its own stream, in step order.
//     Step i always runs against the stream Reseed(seed[i]) regardless of
//     which worker executes it or which batch it lands in.
//   - Deterministic greedy matching. Steps are scanned in the round's
//     shuffled order; each is planned (PlanStep predicts its conflict
//     set against current state, consuming a throwaway copy of the step's
//     stream) and admitted to the open batch iff its conflict set is
//     disjoint from every admitted step's. Conflicting steps wait for the
//     next batch and are re-planned. The partition depends only on the
//     step order and the (deterministic) plans — never on worker count.
//   - Barriers with ordered flushes. A batch executes across the worker
//     pool, then the engine waits, flushes deferred per-worker state
//     (meter charges, the core layer's holder-index ops, applied in step
//     order) and only then opens the next batch.
//
// The worker pool is persistent: SetExchangeParallelism(n) keeps n-1 pool
// goroutines (the engine goroutine itself executes as worker slot 0)
// parked on per-worker wake channels across batches and rounds, so
// dispatching a batch costs a few channel operations instead of goroutine
// spawns. Batches smaller than twice the worker
// count — the tail of a round, where the greedy matcher is down to a
// handful of conflicting stragglers — run inline on slot 0 and skip the
// dispatch entirely; because admitted steps are node-disjoint and
// randomness is pre-split, the execution vehicle is unobservable and
// results stay byte-identical at every worker count and across pool
// resizes.
//
// Execution replays the plan: StepW re-derives every selection from the
// same state and stream PlanStep saw, so the plan stores nothing and the
// two cannot drift without tripping the StepCtx.Touch assertion, which
// panics the moment a step touches a node outside its planned conflict set.
//
// The batched trajectory is a different (equally valid) trajectory from
// the legacy sequential one — pre-splitting changes the draw sequence — so
// batching is opt-in via SetExchangeParallelism. With it off, the engine
// byte-for-byte reproduces the golden-pinned sequential behaviour.

import (
	"fmt"
	"sync/atomic"

	"polystyrene/internal/genset"
	"polystyrene/internal/xrand"
)

// StepCtx is the execution context of one protocol step. In a batched
// round each worker owns one, carrying the step's pre-split random stream
// and the worker's scratch-slot index; in the legacy sequential round the
// engine's shared seqCtx (whose stream is the engine generator itself) is
// passed instead, so protocol code written against StepCtx behaves
// byte-identically in both modes.
type StepCtx struct {
	e       *Engine
	rng     *xrand.Rand
	worker  int
	step    int
	planned []NodeID
	cost    int
	batched bool
}

// Engine returns the engine this step runs in.
func (c *StepCtx) Engine() *Engine { return c.e }

// Rand returns the step's deterministic random stream. Protocol code must
// draw all randomness from it (never from Engine.Rand) so that batched
// steps are independent of scheduling.
func (c *StepCtx) Rand() *xrand.Rand { return c.rng }

// Worker returns the scratch-slot index of the executing worker. Slot 0
// is the sequential engine's slot; batched workers use [0, workers); the
// matcher plans on protocols' dedicated plan scratch, not a slot.
func (c *StepCtx) Worker() int { return c.worker }

// StepIndex returns the step's position in the round's shuffled order
// (meaningful in batched rounds; 0 in sequential ones). Protocols key
// deferred per-step state on it so barriers can apply it in step order.
func (c *StepCtx) StepIndex() int { return c.step }

// Batched reports whether this step runs under the batch scheduler (and
// must defer cross-cutting mutations to its layer's FlushBatch).
func (c *StepCtx) Batched() bool { return c.batched }

// Charge records communication cost for the executing layer. Sequential
// steps charge the meter directly; batched steps accumulate locally and
// the engine flushes the per-worker sums at the batch barrier (addition
// commutes, so ledgers are identical at every worker count).
func (c *StepCtx) Charge(units int) {
	if !c.batched {
		c.e.Charge(units)
		return
	}
	c.cost += units
}

// RandomLive returns a uniformly random live node drawn from the step's
// stream, or None when the system is empty — Engine.RandomLive for
// protocol code running under a StepCtx.
func (c *StepCtx) RandomLive() NodeID {
	if len(c.e.live) == 0 {
		return None
	}
	return c.e.live[c.rng.Intn(len(c.e.live))]
}

// Touch asserts that node id belongs to the step's planned conflict set.
// Batched protocols call it at every point where they are about to read
// or mutate another node's layer state; a plan/execution divergence —
// the one bug class that could silently break determinism — then panics
// deterministically instead of racing. Sequential steps have no plan and
// Touch is a no-op.
func (c *StepCtx) Touch(id NodeID) {
	if c.planned == nil {
		return
	}
	for _, v := range c.planned {
		if v == id {
			return
		}
	}
	panic(fmt.Sprintf("sim: step %d (node %d) touched node %d outside its planned conflict set %v",
		c.step, c.e.order[c.step], id, c.planned))
}

// Batched is the optional extension a Protocol implements to run its
// rounds under the batch scheduler. Implementations must guarantee that
// StepW(ctx, id) reads and writes layer state only of the nodes PlanStep
// reported (plus engine-global state that is frozen during a round:
// liveness, the live set, positions snapshotted by the layer), and that
// all randomness comes from ctx.Rand().
type Batched interface {
	Protocol

	// Batchable reports whether the layer can currently run batched (e.g.
	// the Polystyrene layer declines when configured with a failure
	// detector whose answers are not parallel-safe). Non-batchable layers
	// fall back to the sequential path inside an otherwise parallel round.
	Batchable() bool

	// BeginBatchedRound is called once before the layer's batched pass,
	// in the engine goroutine. The layer sizes its per-worker scratch for
	// the given pool size and may snapshot state that concurrent steps
	// read outside their conflict sets (core snapshots node positions).
	BeginBatchedRound(e *Engine, workers int)

	// PlanStep appends the conflict set of the upcoming StepW(ctx, id) to
	// dst and returns the extended slice: every node whose layer-local
	// state (in this layer or one below) the step may read or write,
	// including id itself. rng is a throwaway stream seeded identically
	// to the one StepW will receive; PlanStep must not mutate any
	// protocol state and must predict peer selection by mirroring the
	// exchange's selection prefix draw-for-draw.
	//
	// Selection may depend ONLY on id's own layer state plus state frozen
	// for the whole pass (liveness, the live set, snapshotted positions):
	// the engine caches plans across batch barriers and re-plans a step
	// only after an executed batch touched the step's own node. Reading
	// another node's mutable state during selection would make cached
	// plans stale. PlanStep may write only its layer's own plan scratch,
	// never state keyed by node: StepW re-derives every selection itself.
	PlanStep(e *Engine, rng *xrand.Rand, id NodeID, dst []NodeID) []NodeID

	// StepW is Step under the batch scheduler: randomness from
	// ctx.Rand(), pooled scratch from slot ctx.Worker(), meter charges
	// via ctx.Charge, and cross-cutting mutations deferred to FlushBatch.
	StepW(ctx *StepCtx, id NodeID)

	// FlushBatch is called at each batch barrier, in the engine
	// goroutine, to apply mutations the workers deferred (in step order,
	// so results are independent of how steps were scheduled).
	FlushBatch(e *Engine)

	// EndBatchedRound is called after the layer's last batch of the
	// round, before observers run (core drops its position snapshot).
	EndBatchedRound(e *Engine)
}

// PlanInvariant is an optional marker a Batched layer implements when its
// PlanStep output is invariant for the whole pass even for nodes that
// executed batches touched — i.e. selection reads nothing an exchange of
// this layer mutates (only pass-frozen snapshots and state mutated
// exclusively by the node's own step). The engine then never re-plans a
// deferred step of that layer. The Polystyrene layer qualifies: its
// partner window ranks snapshotted positions over the (frozen) overlay
// views, and its random-peer draws read the initiator's own sampling
// view, which no other Polystyrene step touches. The gossip layers do
// not: an exchange rewrites its partner's view, which feeds the
// partner's own future selection.
type PlanInvariant interface {
	PlanInvariant() bool
}

// SetExchangeParallelism configures intra-round exchange batching: n >= 1
// runs every Batchable layer's pass through the batch scheduler on n
// workers; n <= 0 (the default) keeps the legacy sequential engine.
//
// For a fixed seed, results are byte-identical across all n >= 1 — worker
// count is a throughput knob, not a semantic one — but the batched
// trajectory differs from the sequential one (randomness is pre-split per
// step instead of drawn from one shared stream), so 0 and 1 are different
// runs. Call it before RunRounds or between rounds, never mid-round;
// resizing between rounds never changes results.
//
// The call resizes the engine's persistent worker pool to n-1 parked
// goroutines (the engine goroutine executes as worker slot 0). Shrinking
// joins the retired goroutines before returning; an engine configured
// with n >= 2 holds pool goroutines until SetExchangeParallelism(1 or 0)
// or Close releases them.
func (e *Engine) SetExchangeParallelism(n int) {
	if n < 0 {
		n = 0
	}
	e.exWorkers = n
	for len(e.wctx) < n {
		e.wctx = append(e.wctx, &StepCtx{e: e, rng: xrand.New(0), worker: len(e.wctx), batched: true})
	}
	e.resizePool(n - 1)
}

// dispatchMin returns the smallest batch size handed to the pool, twice
// the worker count; smaller batches run inline on slot 0.
func (e *Engine) dispatchMin() int { return 2 * (len(e.pool.workers) + 1) }

// Close releases the engine's pool goroutines (joining them before it
// returns) and is idempotent. The engine stays usable — batched passes
// simply execute inline on the engine goroutine, which is byte-identical
// — and a later SetExchangeParallelism call re-spawns the pool. Call it
// when discarding an engine configured with exchange parallelism >= 2, or
// its parked workers outlive the engine's last use.
func (e *Engine) Close() { e.resizePool(0) }

// exWorker is one parked pool goroutine: wake hands it the open batch
// (closing the channel retires it), exited confirms it is gone.
type exWorker struct {
	wake   chan struct{}
	exited chan struct{}
}

// exPool is the engine's persistent exchange-worker pool. The engine
// goroutine doubles as worker slot 0, so workers[i] executes with step
// context e.wctx[i+1]; bp and next carry the open batch's layer and claim
// counter from the dispatching engine to the woken workers (the wake send
// publishes them, the done receive collects the workers' writes).
type exPool struct {
	workers []*exWorker
	done    chan struct{}
	next    atomic.Int64
	bp      Batched
}

// resizePool grows or shrinks the pool to n parked goroutines. Shrinking
// closes the retired workers' wake channels and waits for each to exit,
// so callers observe real goroutine counts (no leak window). Never call
// it mid-round: workers must be parked.
func (e *Engine) resizePool(n int) {
	if n < 0 {
		n = 0
	}
	p := &e.pool
	if p.done == nil {
		p.done = make(chan struct{})
	}
	for len(p.workers) < n {
		w := &exWorker{wake: make(chan struct{}, 1), exited: make(chan struct{})}
		p.workers = append(p.workers, w)
		go e.poolWorker(e.wctx[len(p.workers)], w)
	}
	for len(p.workers) > n {
		w := p.workers[len(p.workers)-1]
		close(w.wake)
		<-w.exited
		p.workers = p.workers[:len(p.workers)-1]
	}
}

// poolWorker is the body of one pool goroutine: park on wake, drain the
// open batch, report done, park again. It exits when wake is closed.
func (e *Engine) poolWorker(ctx *StepCtx, w *exWorker) {
	defer close(w.exited)
	for range w.wake {
		e.runBatchSteps(e.pool.bp, ctx)
		e.pool.done <- struct{}{}
	}
}

// runBatchSteps claims steps of the open batch off the shared counter and
// executes them under ctx until the batch is drained. The claiming order
// is nondeterministic, which is safe precisely because admitted steps are
// node-disjoint.
func (e *Engine) runBatchSteps(bp Batched, ctx *StepCtx) {
	bs := &e.bs
	for {
		k := int(e.pool.next.Add(1)) - 1
		if k >= len(bs.batch) {
			break
		}
		pe := bs.batch[k]
		ctx.rng.Reseed(bs.seeds[pe.si])
		ctx.planned = bs.arena[pe.off : pe.off+pe.n]
		ctx.step = int(pe.si)
		bp.StepW(ctx, e.order[pe.si])
	}
	ctx.planned = nil
}

// pendStep is one not-yet-executed step of the current pass, together
// with its cached plan: arena[off:off+n] is the planned conflict set when
// valid. Plans stay valid across batches because PlanStep may only read
// the initiator's own layer state plus pass-frozen state, so a cached
// plan is only invalidated when an executed batch touches the step's own
// node.
type pendStep struct {
	si    int32
	off   int32
	n     int32
	valid bool
}

// batchState is the engine's pooled scheduling scratch, reused across
// rounds and layers.
type batchState struct {
	seeds   []uint64    // per-step streams, drawn up front in step order
	pending []pendStep  // steps not yet executed, with cached plans
	batch   []pendStep  // steps admitted to the open batch
	arena   []NodeID    // conflict-set storage for the pass (append-only)
	touched genset.Set  // nodes claimed by the open batch
	planRng *xrand.Rand // throwaway stream handed to PlanStep
}

// runBatched executes one layer's pass over the round's step order under
// the batch scheduler. Called with e.curLayer already set to the layer's
// ledger slot.
func (e *Engine) runBatched(bp Batched) {
	n := len(e.order)
	if n == 0 {
		return
	}
	bs := &e.bs
	if bs.planRng == nil {
		bs.planRng = xrand.New(0)
	}

	// Draw every step's stream seed up front, in step order, from the
	// engine's own stream: step i's randomness is fixed before any
	// scheduling decision exists.
	bs.seeds = bs.seeds[:0]
	for i := 0; i < n; i++ {
		bs.seeds = append(bs.seeds, e.rng.Uint64())
	}

	bp.BeginBatchedRound(e, e.exWorkers)
	invariant := false
	if pi, ok := bp.(PlanInvariant); ok {
		invariant = pi.PlanInvariant()
	}

	bs.pending, bs.arena = bs.pending[:0], bs.arena[:0]
	for i := 0; i < n; i++ {
		if e.alive[e.order[i]] {
			bs.pending = append(bs.pending, pendStep{si: int32(i)})
		}
	}

	for len(bs.pending) > 0 {
		// Greedy matching: admit every pending step (in step order) whose
		// planned conflict set is disjoint from the batch so far;
		// conflicting steps wait for a later batch. Plans are computed
		// lazily and cached: a deferred step is only re-planned when an
		// executed batch touched its own node (see pendStep).
		touched, gen := bs.touched.Next(e.NumNodes())
		bs.batch = bs.batch[:0]
		keep := bs.pending[:0]
		for k := range bs.pending {
			pe := bs.pending[k]
			if !pe.valid {
				bs.planRng.Reseed(bs.seeds[pe.si])
				off := int32(len(bs.arena))
				bs.arena = bp.PlanStep(e, bs.planRng, e.order[pe.si], bs.arena)
				pe.off, pe.n, pe.valid = off, int32(len(bs.arena))-off, true
			}
			cs := bs.arena[pe.off : pe.off+pe.n]
			conflict := false
			for _, c := range cs {
				if touched[c] == gen {
					conflict = true
					break
				}
			}
			if conflict {
				keep = append(keep, pe)
				continue
			}
			for _, c := range cs {
				touched[c] = gen
			}
			bs.batch = append(bs.batch, pe)
		}
		bs.pending = keep

		e.execBatch(bp)
		bp.FlushBatch(e)

		// Invalidate cached plans whose own node this batch touched: its
		// layer-local state may have changed, so selection must re-run.
		// Conflicts through *other* planned nodes (a claimed partner or
		// backup target) leave the plan valid — selection never reads the
		// partner's state, only the initiator's — and a PlanInvariant
		// layer's plans survive even own-node touches.
		if !invariant {
			for k := range bs.pending {
				if touched[e.order[bs.pending[k].si]] == gen {
					bs.pending[k].valid = false
				}
			}
		}
	}
	bp.EndBatchedRound(e)
}

// execBatch steps every admitted step of the open batch and waits at the
// barrier. Batches of at least dispatchMin steps wake helpers from the
// persistent pool (the engine claims steps too, as slot 0); smaller ones
// — the round's tail — run inline on slot 0 with no dispatch at all.
// Per-worker meter charges are flushed after the barrier (sums commute).
func (e *Engine) execBatch(bp Batched) {
	bs := &e.bs
	n := len(bs.batch)
	if n == 0 {
		return
	}
	helpers := len(e.pool.workers)
	if helpers > n-1 {
		helpers = n - 1
	}
	if helpers > 0 && n >= e.dispatchMin() {
		e.pool.bp = bp
		e.pool.next.Store(0)
		for w := 0; w < helpers; w++ {
			e.pool.workers[w].wake <- struct{}{}
		}
		e.runBatchSteps(bp, e.wctx[0])
		for w := 0; w < helpers; w++ {
			<-e.pool.done
		}
	} else {
		ctx := e.wctx[0]
		for _, pe := range bs.batch {
			ctx.rng.Reseed(bs.seeds[pe.si])
			ctx.planned = bs.arena[pe.off : pe.off+pe.n]
			ctx.step = int(pe.si)
			bp.StepW(ctx, e.order[pe.si])
		}
		ctx.planned = nil
	}
	for _, ctx := range e.wctx {
		if ctx.cost != 0 {
			e.meter.charge(e.curLayer, e.round, ctx.cost)
			ctx.cost = 0
		}
	}
}
