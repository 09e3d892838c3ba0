package scenario

import (
	"reflect"
	"testing"

	"polystyrene/internal/sim"
)

// TestEngineResetByteIdentical pins sim.Engine.Reset's contract at the
// full-stack level: an engine that already ran a different experiment
// (different seed, different worker count), once Reset and handed to a
// new scenario via Config.Engine, reproduces the fresh-engine metric
// record and reliability byte-for-byte — for the sequential engine and
// under exchange batching.
func TestEngineResetByteIdentical(t *testing.T) {
	for _, workers := range []int{0, 2} {
		cfg := Config{Seed: 11, W: 16, H: 8, Polystyrene: true, ExchangeParallelism: workers}
		freshRes, freshRel := paperRun(t, cfg)

		eng := sim.New(0)
		defer eng.Close()
		dirty := cfg
		dirty.Seed = 99
		dirty.ExchangeParallelism = 3 - workers // different pool size too
		dirty.Engine = eng
		paperRun(t, dirty)

		reused := cfg
		reused.Engine = eng
		res, rel := paperRun(t, reused)
		if !reflect.DeepEqual(res, freshRes) {
			t.Errorf("workers=%d: reset-engine metric record diverged from fresh engine", workers)
		}
		if rel != freshRel {
			t.Errorf("workers=%d: reset-engine reliability %v, want %v", workers, rel, freshRel)
		}
	}
}

// TestPooledSweepByteIdentical pins that the pooled-cell sweep path —
// engines recycled across cells via Reset, concurrency bounded by a
// deliberately tight memory budget — folds to exactly the PR 4
// runner.Map output, for both repeated-run harnesses. CI runs it in the
// race-enabled determinism step: the engine pool, the per-cell reset and
// the concurrent cells' worker pools all execute under the race
// detector there.
func TestPooledSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep identity run; exercised by CI's dedicated race step")
	}
	base := Config{Seed: 7, W: 16, H: 8}
	opts := RunOpts{
		Reps: 2, ConvergeRounds: 8, MaxRounds: 30,
		Parallelism: 2, ExchangeParallelism: 2,
	}

	tableRef, err := TableII(base, []int{2, 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	pooled := opts
	pooled.PoolEngines = true
	pooled.MemBudgetBytes = base.EstimatedFootprintBytes() // one cell at a time
	tablePooled, err := TableII(base, []int{2, 4}, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tablePooled, tableRef) {
		t.Error("pooled TableII diverged from the per-cell-engine reference")
	}

	sizes := []GridSize{{16, 8}, {20, 10}}
	variants := map[string]func(Config) Config{
		"K2": func(c Config) Config { c.K = 2; return c },
		"K4": func(c Config) Config { c.K = 4; return c },
	}
	sweepRef, err := SizeSweep(base, sizes, variants, opts)
	if err != nil {
		t.Fatal(err)
	}
	sweepPooled, err := SizeSweep(base, sizes, variants, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sweepPooled, sweepRef) {
		t.Error("pooled SizeSweep diverged from the per-cell-engine reference")
	}

	churnRef, err := ChurnSweep(base, []float64{0.01, 0.02}, ChurnSweepOpts{
		ChurnRounds: 6, ConvergeRounds: 8, SettleRounds: 6,
		Parallelism: 2, ExchangeParallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	churnPooled, err := ChurnSweep(base, []float64{0.01, 0.02}, ChurnSweepOpts{
		ChurnRounds: 6, ConvergeRounds: 8, SettleRounds: 6,
		Parallelism: 2, ExchangeParallelism: 2,
		PoolEngines: true, MemBudgetBytes: base.EstimatedFootprintBytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(churnPooled, churnRef) {
		t.Error("pooled ChurnSweep diverged from the per-cell-engine reference")
	}
}

// TestExchangeParallelismTailCoalescing pins tail coalescing at the
// full-stack level: the per-round metric record and final reliability are
// byte-identical with coalescing disabled, at the default threshold, and
// with the whole round coalesced onto the engine goroutine. (The name
// keeps it inside CI's race-enabled determinism step.)
func TestExchangeParallelismTailCoalescing(t *testing.T) {
	run := func(minBatch int) (*Result, float64) {
		sc := MustNew(Config{Seed: 42, W: 20, H: 10, Polystyrene: true, ExchangeParallelism: 3})
		defer sc.Close()
		sc.Engine.SetTailCoalescing(minBatch)
		sc.Run(8)
		killed := sc.FailRightHalf()
		sc.Run(12)
		sc.Reinject(killed)
		sc.Run(12)
		return sc.Result(), sc.Reliability()
	}
	refRes, refRel := run(1) // coalescing off: every batch dispatched
	for _, minBatch := range []int{0, 6, 1 << 20} {
		res, rel := run(minBatch)
		if !reflect.DeepEqual(res, refRes) || rel != refRel {
			t.Errorf("minBatch=%d: trajectory diverged from the uncoalesced reference", minBatch)
		}
	}
}

// TestRunOptsMemBudgetBoundsParallelism pins the memory side of the
// budget composition: a budget sized for two cells caps cell parallelism
// at two even on a wider worker budget, and the floor is always one cell.
func TestRunOptsMemBudgetBoundsParallelism(t *testing.T) {
	cell := Config{Seed: 1, W: 16, H: 8, Polystyrene: true}
	bytes := cell.EstimatedFootprintBytes()
	if bytes <= 0 {
		t.Fatalf("footprint estimate %d, want > 0", bytes)
	}
	opts := RunOpts{Parallelism: 8, MemBudgetBytes: 2 * bytes}
	if par, _ := opts.compose(8, bytes); par != 2 {
		t.Errorf("parallelism = %d, want 2 (budget fits two cells)", par)
	}
	opts.MemBudgetBytes = bytes / 2
	if par, _ := opts.compose(8, bytes); par != 1 {
		t.Errorf("parallelism = %d, want the floor of 1 under an impossible budget", par)
	}
}
