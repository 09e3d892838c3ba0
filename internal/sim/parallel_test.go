package sim

import (
	"sync"
	"testing"

	"polystyrene/internal/xrand"
)

// pairProto is a scripted batched protocol that exercises the scheduler
// the way the real gossip layers do: every step draws a partner from its
// step stream, mutates both nodes' state and charges the meter. It
// instruments execution to let the tests check the scheduler's two core
// invariants (node-disjoint batches, every live step executed exactly
// once) and the determinism contract.
type pairProto struct {
	name string
	vals []uint64

	mu         sync.Mutex
	batchNodes map[NodeID]int // node -> claiming step, for the open batch
	execCount  map[NodeID]int // per-round execution counter
	batchSizes []int          // admitted steps per batch
	fail       func(string, ...any)
}

var _ Batched = (*pairProto)(nil)

func newPairProto(name string, fail func(string, ...any)) *pairProto {
	return &pairProto{
		name:       name,
		batchNodes: make(map[NodeID]int),
		execCount:  make(map[NodeID]int),
		fail:       fail,
	}
}

func (p *pairProto) Name() string { return p.name }

func (p *pairProto) InitNode(e *Engine, id NodeID) {
	for len(p.vals) <= int(id) {
		p.vals = append(p.vals, uint64(len(p.vals))*0x9e3779b97f4a7c15)
	}
}

// pickPeer draws the exchange partner: a uniformly random live node other
// than the initiator. Used identically by the plan mirror and the step.
func (p *pairProto) pickPeer(e *Engine, rng *xrand.Rand, id NodeID) NodeID {
	if e.NumLive() < 2 {
		return None
	}
	for {
		if q := e.LiveAt(rng.Intn(e.NumLive())); q != id {
			return q
		}
	}
}

func (p *pairProto) Step(e *Engine, id NodeID) { p.StepW(e.SeqCtx(), id) }

func (p *pairProto) StepW(ctx *StepCtx, id NodeID) {
	e := ctx.Engine()
	p.noteExec(ctx, id)
	q := p.pickPeer(e, ctx.Rand(), id)
	if q == None {
		return
	}
	ctx.Touch(q)
	p.note(ctx, id, q)
	// The exchange: an order-insensitive-within-disjoint-batches mix of
	// the pair's states.
	a, b := p.vals[id], p.vals[q]
	p.vals[id] = a*1099511628211 ^ b
	p.vals[q] = b*1099511628211 ^ a ^ uint64(ctx.Rand().Intn(1<<30))
	ctx.Charge(int(id%7) + 1)
}

// noteExec counts the step's execution for the exactly-once coverage
// check — before peer selection, so a step that finds no live partner
// (a near-empty system) still registers.
func (p *pairProto) noteExec(ctx *StepCtx, id NodeID) {
	if !ctx.Batched() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.execCount[id]++
}

// note records the step's touched nodes and fails the test if the open
// batch already claimed either (i.e. the scheduler admitted conflicting
// steps).
func (p *pairProto) note(ctx *StepCtx, id, q NodeID) {
	if !ctx.Batched() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range []NodeID{id, q} {
		if prev, dup := p.batchNodes[n]; dup {
			p.fail("batch admitted steps %d and %d both touching node %d", prev, ctx.StepIndex(), n)
		}
		p.batchNodes[n] = ctx.StepIndex()
	}
}

func (p *pairProto) Batchable() bool                          { return true }
func (p *pairProto) BeginBatchedRound(e *Engine, workers int) {}

func (p *pairProto) PlanStep(e *Engine, rng *xrand.Rand, id NodeID, dst []NodeID) []NodeID {
	dst = append(dst, id)
	if q := p.pickPeer(e, rng, id); q != None {
		dst = append(dst, q)
	}
	return dst
}

func (p *pairProto) FlushBatch(e *Engine) {
	p.batchSizes = append(p.batchSizes, len(p.batchNodes)/2)
	clear(p.batchNodes)
}

func (p *pairProto) EndBatchedRound(e *Engine) {}

func (p *pairProto) fingerprint() uint64 {
	t := newTrace()
	for _, v := range p.vals {
		t.add(v)
	}
	return t.h
}

// runPairSim drives a churny scripted run at the given worker count and
// returns the protocol for inspection.
func runPairSim(t *testing.T, workers int) (*pairProto, *Engine) {
	t.Helper()
	proto := newPairProto("pairs", func(format string, args ...any) { t.Errorf(format, args...) })
	e := New(0xfeedbeef, proto)
	e.SetExchangeParallelism(workers)
	e.AddNodes(300)
	observeExactlyOnce(t, e, proto)
	t.Cleanup(e.Close)
	e.RunRounds(3)
	for id := NodeID(40); id < 190; id++ {
		e.Kill(id)
	}
	e.RunRounds(3)
	e.AddNodes(75)
	e.RunRounds(4)
	return proto, e
}

// observeExactlyOnce registers the exactly-once-per-round coverage check:
// every live node steps exactly once, every round.
func observeExactlyOnce(t testing.TB, e *Engine, proto *pairProto) {
	e.Observe(func(e *Engine, round int) {
		proto.mu.Lock()
		defer proto.mu.Unlock()
		if len(proto.execCount) != e.NumLive() {
			t.Errorf("round %d: %d nodes stepped, %d live", round, len(proto.execCount), e.NumLive())
		}
		for id, n := range proto.execCount {
			if n != 1 {
				t.Errorf("round %d: node %d stepped %d times", round, id, n)
			}
		}
		clear(proto.execCount)
	})
}

// TestBatchedCoverageAndDisjointness pins the matcher's two invariants on
// a churny run: every live node steps exactly once per round (checked by
// the observer above), batches never admit two steps touching the same
// node (checked by note), and the batches actually partition the work
// into multi-step groups rather than degenerating to one step per batch.
func TestBatchedCoverageAndDisjointness(t *testing.T) {
	proto, _ := runPairSim(t, 4)
	if len(proto.batchSizes) == 0 {
		t.Fatal("no batches recorded")
	}
	max := 0
	for _, s := range proto.batchSizes {
		if s > max {
			max = s
		}
	}
	if max < 8 {
		t.Errorf("largest batch held %d steps; matching is degenerating", max)
	}
}

// TestBatchedWorkerCountInvariance pins the determinism contract: for a
// fixed seed, node state and meter ledgers are byte-identical at every
// worker count, including the inline single-worker scheduler.
func TestBatchedWorkerCountInvariance(t *testing.T) {
	protoRef, eRef := runPairSim(t, 1)
	ref := protoRef.fingerprint()
	refCost := eRef.Meter().TotalCost("pairs")
	if refCost == 0 {
		t.Fatal("reference run charged nothing")
	}
	for _, workers := range []int{2, 3, 8} {
		proto, e := runPairSim(t, workers)
		if got := proto.fingerprint(); got != ref {
			t.Errorf("workers=%d: state fingerprint %#x, want %#x", workers, got, ref)
		}
		if got := e.Meter().TotalCost("pairs"); got != refCost {
			t.Errorf("workers=%d: total cost %d, want %d", workers, got, refCost)
		}
		for r := 0; r < 10; r++ {
			if got, want := e.Meter().RoundCost("pairs", r), eRef.Meter().RoundCost("pairs", r); got != want {
				t.Errorf("workers=%d round %d: cost %d, want %d", workers, r, got, want)
			}
		}
	}
}

// rogueProto plans {id} but then touches another node — the plan/exec
// divergence Touch exists to catch.
type rogueProto struct{ pairProto }

func (p *rogueProto) PlanStep(e *Engine, rng *xrand.Rand, id NodeID, dst []NodeID) []NodeID {
	return append(dst, id) // lies: omits the partner
}

func (p *rogueProto) Batchable() bool { return true }

// TestTouchCatchesPlanDivergence pins the safety net: a protocol whose
// executed step touches a node missing from its planned conflict set must
// panic deterministically instead of corrupting a concurrent run.
func TestTouchCatchesPlanDivergence(t *testing.T) {
	proto := &rogueProto{}
	proto.name = "rogue"
	proto.batchNodes = make(map[NodeID]int)
	proto.execCount = make(map[NodeID]int)
	proto.fail = func(string, ...any) {}
	e := New(7, proto)
	e.SetExchangeParallelism(1) // inline scheduler: the panic surfaces here
	e.AddNodes(16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected Touch to panic on an unplanned node")
		}
	}()
	e.RunRounds(1)
}
