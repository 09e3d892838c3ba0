package sim

import (
	"runtime"
	"testing"
	"time"

	"polystyrene/internal/xrand"
)

// churnySim is the scripted churny run of runPairSim, assembled but not
// executed, so tests can drive rounds and resize the pool themselves.
type churnySim struct {
	e     *Engine
	proto *pairProto
	nodes int
}

func churnyPairSim(t testing.TB, seed uint64, nodes, workers int) *churnySim {
	t.Helper()
	proto := newPairProto("pairs", func(format string, args ...any) { t.Errorf(format, args...) })
	e := New(seed, proto)
	e.SetExchangeParallelism(workers)
	e.AddNodes(nodes)
	observeExactlyOnce(t, e, proto)
	t.Cleanup(e.Close)
	return &churnySim{e: e, proto: proto, nodes: nodes}
}

// run executes n rounds of the script: before round 3 it kills nodes
// [nodes/8, nodes*5/8), and before round 6 it adds nodes/4 fresh ones.
func (c *churnySim) run(n int) {
	for ; n > 0; n-- {
		switch c.e.Round() {
		case 3:
			for id := NodeID(c.nodes / 8); id < NodeID(c.nodes*5/8); id++ {
				c.e.Kill(id)
			}
		case 6:
			c.e.AddNodes(c.nodes / 4)
		}
		c.e.RunRounds(1)
	}
}

// waitGoroutines retries until the process goroutine count settles at
// want: a retired pool worker has confirmed its exit before resizePool
// returns, but the runtime may decrement the count a moment later.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := runtime.NumGoroutine(); got == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine count = %d, want %d", got, want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines returns the process goroutine count once it has held
// steady for 50 consecutive 1 ms samples: pool workers retired by earlier
// tests' Close may still be counted for a moment after Close returns, and
// a baseline taken during that window would sit above the true one.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n, steady := runtime.NumGoroutine(), 0
	for steady < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (last %d)", n)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		if got := runtime.NumGoroutine(); got == n {
			steady++
		} else {
			n, steady = got, 0
		}
	}
	return n
}

// TestWorkerPoolLifecycle pins the persistent pool's goroutine
// accounting: SetExchangeParallelism(n) parks exactly n-1 workers, they
// stay parked across rounds (no per-batch spawns), resizing down joins
// the retired workers, and Close (idempotent) releases them all — no
// leak, asserted via runtime.NumGoroutine deltas.
func TestWorkerPoolLifecycle(t *testing.T) {
	base := settledGoroutines(t)
	c := churnyPairSim(t, 0xfeedbeef, 240, 6)
	e := c.e
	waitGoroutines(t, base+5)

	c.run(4)
	waitGoroutines(t, base+5) // parked between rounds, not respawned

	e.SetExchangeParallelism(2)
	waitGoroutines(t, base+1)
	c.run(2)

	e.SetExchangeParallelism(8)
	waitGoroutines(t, base+7)
	c.run(2)

	e.Close()
	waitGoroutines(t, base)
	e.Close() // idempotent
	waitGoroutines(t, base)

	// A closed engine stays usable: batched passes execute inline.
	c.run(2)
	waitGoroutines(t, base)

	// And re-configuring re-spawns a fresh pool.
	e.SetExchangeParallelism(3)
	waitGoroutines(t, base+2)
	c.run(1)
}

// TestWorkerPoolResizeMidRunByteIdentical pins that resizing the pool
// between rounds — up, down, to sequential-batched (1) and back — leaves
// the trajectory byte-identical to a constant-worker run: the partition
// and the pre-split randomness never depend on the pool size.
func TestWorkerPoolResizeMidRunByteIdentical(t *testing.T) {
	ref := churnyPairSim(t, 0xfeedbeef, 240, 1)
	ref.run(10)

	schedule := map[int]int{1: 4, 3: 2, 5: 8, 7: 1, 8: 3}
	c := churnyPairSim(t, 0xfeedbeef, 240, 2)
	c.e.Observe(func(e *Engine, round int) {
		if w, ok := schedule[round]; ok {
			e.SetExchangeParallelism(w)
		}
	})
	c.run(10)
	if got, want := c.proto.fingerprint(), ref.proto.fingerprint(); got != want {
		t.Errorf("resized run fingerprint %#x, want %#x", got, want)
	}
	for r := 0; r < 10; r++ {
		if got, want := c.e.Meter().RoundCost("pairs", r), ref.e.Meter().RoundCost("pairs", r); got != want {
			t.Errorf("round %d: cost %d, want %d", r, got, want)
		}
	}
}

// TestChurnyPoolWorkerCountByteIdentical pins that the execution vehicle
// is unobservable through churn: at one worker every batch runs inline on
// slot 0, at two to four workers batches of at least twice the worker
// count are dispatched to the pool, and the fingerprint is the same.
func TestChurnyPoolWorkerCountByteIdentical(t *testing.T) {
	run := func(workers int) uint64 {
		c := churnyPairSim(t, 0xabcdef99, 300, workers)
		c.run(10)
		return c.proto.fingerprint()
	}
	ref := run(1)
	for _, workers := range []int{2, 3, 4} {
		if got := run(workers); got != ref {
			t.Errorf("workers=%d: fingerprint %#x, want %#x", workers, got, ref)
		}
	}
}

// quietProto is pairProto's uninstrumented twin for allocation
// measurements: same exchange physics, no mutex, no maps, no recording.
type quietProto struct {
	vals []uint64
}

var _ Batched = (*quietProto)(nil)

func (p *quietProto) Name() string { return "quiet" }

func (p *quietProto) InitNode(e *Engine, id NodeID) {
	for len(p.vals) <= int(id) {
		p.vals = append(p.vals, uint64(len(p.vals))*0x9e3779b97f4a7c15)
	}
}

func (p *quietProto) Step(e *Engine, id NodeID) { p.StepW(e.SeqCtx(), id) }

func (p *quietProto) StepW(ctx *StepCtx, id NodeID) {
	e := ctx.Engine()
	if e.NumLive() < 2 {
		return
	}
	var q NodeID
	for {
		if q = e.LiveAt(ctx.Rand().Intn(e.NumLive())); q != id {
			break
		}
	}
	ctx.Touch(q)
	a, b := p.vals[id], p.vals[q]
	p.vals[id] = a*1099511628211 ^ b
	p.vals[q] = b*1099511628211 ^ a
	ctx.Charge(1)
}

func (p *quietProto) Batchable() bool                          { return true }
func (p *quietProto) BeginBatchedRound(e *Engine, workers int) {}

func (p *quietProto) PlanStep(e *Engine, rng *xrand.Rand, id NodeID, dst []NodeID) []NodeID {
	dst = append(dst, id)
	if e.NumLive() < 2 {
		return dst
	}
	for {
		if q := e.LiveAt(rng.Intn(e.NumLive())); q != id {
			return append(dst, q)
		}
	}
}

func (p *quietProto) FlushBatch(e *Engine)      {}
func (p *quietProto) EndBatchedRound(e *Engine) {}

// TestBatchSchedulerSteadyStateAllocs pins the tentpole's allocation
// contract: a warmed batched round spawns no goroutines and allocates
// O(1) — the pool is persistent and every scheduling buffer is pooled.
// (The PR 4 scheduler spawned per-batch goroutines: tens of allocations
// per round at this scale, hundreds at 51,200 nodes.)
func TestBatchSchedulerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("AllocsPerRun is unreliable under -race; the race step runs -short")
	}
	proto := &quietProto{}
	e := New(99, proto)
	e.SetExchangeParallelism(4)
	defer e.Close()
	e.AddNodes(1024)
	e.RunRounds(5) // warm every pooled buffer
	avg := testing.AllocsPerRun(20, func() { e.RunRounds(1) })
	// The only allowed steady-state growth is the meter ledger's
	// amortised one-entry-per-round append.
	if avg > 4 {
		t.Errorf("steady-state batched round allocates %.1f objects/round, want O(1)", avg)
	}
}

// FuzzBatchCoalesce drives the scripted exchange protocol over fuzzed
// (worker count, population, churn) and pins the scheduler's invariants at
// every point: batches stay node-disjoint and every live node steps
// exactly once per round (pairProto's checks), and the final state and
// ledger are byte-identical to the single-worker reference, whose batches
// all run inline — the determinism contract over the whole (batch
// partition x execution vehicle) space.
func FuzzBatchCoalesce(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(50), uint8(20))
	f.Add(uint64(0xfeedbeef), uint8(2), uint8(200), uint8(3))
	f.Add(uint64(42), uint8(7), uint8(90), uint8(70))
	f.Add(uint64(7777), uint8(1), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, workers, nodes, churn uint8) {
		n := int(nodes)%200 + 2
		run := func(w int) (uint64, int) {
			proto := newPairProto("pairs", func(format string, args ...any) { t.Errorf(format, args...) })
			e := New(seed, proto)
			e.SetExchangeParallelism(w)
			defer e.Close()
			e.AddNodes(n)
			kills := int(churn) % n
			observeExactlyOnce(t, e, proto)
			e.RunRounds(2)
			for id := NodeID(0); id < NodeID(kills); id++ {
				e.Kill(id)
			}
			e.RunRounds(2)
			e.AddNodes(kills / 2)
			e.RunRounds(2)
			return proto.fingerprint(), e.Meter().TotalCost("pairs")
		}
		refFp, refCost := run(1)
		w := int(workers)%8 + 1
		gotFp, gotCost := run(w)
		if gotFp != refFp {
			t.Errorf("workers=%d: state fingerprint %#x, want %#x", w, gotFp, refFp)
		}
		if gotCost != refCost {
			t.Errorf("workers=%d: total cost %d, want %d", w, gotCost, refCost)
		}
	})
}
