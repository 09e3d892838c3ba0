package scenario

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"polystyrene/internal/fd"
	"polystyrene/internal/sim"
)

// snapPhases is the compressed paper schedule the snapshot tests run
// (mirrors paperRun): fail at 8, reinject at 20, end at 32.
var snapPhases = Phases{FailAt: 8, ReinjectAt: 20, End: 32}

// interruptedRun replicates the snapPhases schedule but checkpoints at
// stopAt rounds, restores the checkpoint into a freshly wired scenario
// (or one wired over restoreInto, e.g. a pooled engine) and finishes the
// schedule there. The returned record must be byte-identical to an
// uninterrupted run's.
func interruptedRun(t *testing.T, cfg Config, stopAt int, restoreInto *sim.Engine) (*Result, float64) {
	t.Helper()
	run := func(sc *Scenario, from, to int) {
		for r := from; r < to; r++ {
			if r == snapPhases.FailAt {
				sc.FailRightHalf()
			}
			if r == snapPhases.ReinjectAt {
				sc.Reinject(sc.Cfg.W*sc.Cfg.H - sc.Engine.NumLive())
			}
			sc.Run(1)
		}
	}
	first := MustNew(cfg)
	run(first, 0, stopAt)
	var buf bytes.Buffer
	if err := first.SnapshotTo(&buf); err != nil {
		t.Fatalf("SnapshotTo: %v", err)
	}
	first.Close()

	resumedCfg := cfg
	resumedCfg.Engine = restoreInto
	resumed := MustNew(resumedCfg)
	if restoreInto == nil {
		defer resumed.Close()
	}
	if err := resumed.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := resumed.Engine.Round(); got != stopAt {
		t.Fatalf("restored round = %d, want %d", got, stopAt)
	}
	run(resumed, stopAt, snapPhases.End)
	return resumed.Result(), resumed.Reliability()
}

// TestSnapshotRestoreByteIdentical is the tentpole's keystone guarantee:
// snapshot at round r, restore into a fresh engine, run the rest of the
// schedule — every per-round metric series and the final reliability are
// byte-identical to the uninterrupted run, for the sequential engine and
// batched engines at w ∈ {2, 4}, across checkpoint rounds in every phase,
// for both stacks, both overlays and a stateful failure detector.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"poly/w0", Config{Seed: 11, W: 16, H: 8, Polystyrene: true}},
		{"poly/w2", Config{Seed: 11, W: 16, H: 8, Polystyrene: true, ExchangeParallelism: 2}},
		{"poly/w4", Config{Seed: 11, W: 16, H: 8, Polystyrene: true, ExchangeParallelism: 4}},
		{"baseline/w0", Config{Seed: 13, W: 16, H: 8}},
		{"vicinity/w2", Config{Seed: 17, W: 16, H: 8, Polystyrene: true, Overlay: "vicinity", ExchangeParallelism: 2}},
		{"delayedfd/w2", Config{Seed: 19, W: 16, H: 8, Polystyrene: true, Detector: fd.NewDelayed(2), ExchangeParallelism: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if tc.name == "delayedfd/w2" {
				// Each run needs its own detector instance: it is stateful.
				cfg.Detector = fd.NewDelayed(2)
			}
			refRes, refRel := paperRun(t, cfg)
			for _, stopAt := range []int{5, 8, 14, 20, 27} {
				if tc.name == "delayedfd/w2" {
					cfg.Detector = fd.NewDelayed(2)
				}
				res, rel := interruptedRun(t, cfg, stopAt, nil)
				if !reflect.DeepEqual(res, refRes) {
					t.Errorf("stopAt=%d: resumed metric record diverged from uninterrupted run", stopAt)
				}
				if rel != refRel {
					t.Errorf("stopAt=%d: resumed reliability %v, want %v", stopAt, rel, refRel)
				}
			}
		})
	}
}

// TestSnapshotRestoreIntoPooledReset pins restore composing with engine
// pooling: restoring a checkpoint into an engine that already ran a
// different experiment (and was recycled via Config.Engine → Reset)
// continues byte-identically to restoring into a fresh engine.
func TestSnapshotRestoreIntoPooledReset(t *testing.T) {
	for _, workers := range []int{0, 2} {
		cfg := Config{Seed: 23, W: 16, H: 8, Polystyrene: true, ExchangeParallelism: workers}
		refRes, refRel := paperRun(t, cfg)

		eng := sim.New(0)
		defer eng.Close()
		dirty := cfg
		dirty.Seed = 99
		dirty.ExchangeParallelism = 3 - workers
		dirty.Engine = eng
		paperRun(t, dirty)

		res, rel := interruptedRun(t, cfg, 14, eng)
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("workers=%d: restore-into-Reset record diverged from fresh run", workers)
		}
		if rel != refRel {
			t.Errorf("workers=%d: restore-into-Reset reliability %v, want %v", workers, rel, refRel)
		}
	}
}

// TestSnapshotRejectsCorruption pins the no-partial-restore guarantee:
// corrupted, truncated and wrong-kind snapshots are all rejected, and a
// failed Restore leaves the target scenario's state untouched.
func TestSnapshotRejectsCorruption(t *testing.T) {
	cfg := Config{Seed: 31, W: 8, H: 4, Polystyrene: true}
	sc := MustNew(cfg)
	defer sc.Close()
	sc.Run(6)
	var buf bytes.Buffer
	if err := sc.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	target := MustNew(cfg)
	defer target.Close()
	target.Run(3)
	var before bytes.Buffer
	if err := target.SnapshotTo(&before); err != nil {
		t.Fatal(err)
	}

	tryRestore := func(name string, data []byte) {
		t.Helper()
		if err := target.Restore(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: corrupted snapshot accepted", name)
		}
		var after bytes.Buffer
		if err := target.SnapshotTo(&after); err != nil {
			t.Fatalf("%s: re-snapshot: %v", name, err)
		}
		if !bytes.Equal(after.Bytes(), before.Bytes()) {
			t.Fatalf("%s: failed restore mutated the target scenario", name)
		}
	}

	// Single-byte corruption at several positions, including header and
	// trailing checksum.
	for _, pos := range []int{0, 7, 12, len(good) / 2, len(good) - 9, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x20
		tryRestore(fmt.Sprintf("flip@%d", pos), bad)
	}
	for _, n := range []int{0, 1, 15, len(good) / 3, len(good) - 1} {
		tryRestore(fmt.Sprintf("truncate@%d", n), good[:n])
	}

	// A mismatched configuration must be rejected by the digest gate.
	otherCfg := cfg
	otherCfg.K = cfg.K + 3
	other := MustNew(otherCfg)
	defer other.Close()
	if err := other.Restore(bytes.NewReader(good)); err == nil {
		t.Fatal("snapshot restored into a different configuration")
	}

	// The pristine snapshot must still restore cleanly after all that.
	if err := target.Restore(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// TestSnapshotAllocsScaleFree pins the snapshot codec's allocation
// contract on converged 40x20 and 80x40 scenarios. A save writes every
// section in place into one doubling buffer, so quadrupling the node
// count may add only a few buffer doublings. A restore carves per-node
// slices from arenas, so what remains per node is the ghost map and the
// interner's key string.
func TestSnapshotAllocsScaleFree(t *testing.T) {
	if testing.Short() {
		t.Skip("AllocsPerRun is unreliable under -race; the race step runs -short")
	}
	type sample struct {
		nodes         int
		save, restore float64
	}
	measure := func(w, h int) sample {
		cfg := Config{Seed: 5, W: w, H: h, Polystyrene: true, SkipMetrics: true}
		sc := MustNew(cfg)
		defer sc.Close()
		sc.Run(20)
		var buf bytes.Buffer
		if err := sc.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		s := sample{nodes: w * h}
		s.save = testing.AllocsPerRun(5, func() {
			if err := sc.SnapshotTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		target := MustNew(cfg)
		defer target.Close()
		s.restore = testing.AllocsPerRun(5, func() {
			if err := target.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		return s
	}
	small, large := measure(40, 20), measure(80, 40)
	t.Logf("SnapshotTo allocs: %v at %d nodes, %v at %d nodes", small.save, small.nodes, large.save, large.nodes)
	t.Logf("Restore allocs: %v at %d nodes (%.2f/node), %v at %d nodes (%.2f/node)",
		small.restore, small.nodes, small.restore/float64(small.nodes),
		large.restore, large.nodes, large.restore/float64(large.nodes))
	if d := large.save - small.save; d > 8 || d < -8 {
		t.Errorf("SnapshotTo allocations grow with the node count: %v at %d nodes, %v at %d", small.save, small.nodes, large.save, large.nodes)
	}
	for _, s := range []sample{small, large} {
		if s.restore >= 4*float64(s.nodes) {
			t.Errorf("Restore makes %v allocations at %d nodes (%.2f per node), want fewer than 4 per node",
				s.restore, s.nodes, s.restore/float64(s.nodes))
		}
	}
}

// TestRestoredRoundAllocs pins the first round after a restore to a small
// constant number of allocations: the restored T-Man views already sit in
// their fixed-stride rows, so merging into them allocates nothing, and
// what remains is the fresh scenario's worker scratch reaching its working
// size. (Exact-capacity views used to regrow and be compacted back in
// every post-restore round: 1,678 allocations here.)
func TestRestoredRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are unreliable under -race; the race step runs -short")
	}
	cfg := Config{Seed: 5, W: 80, H: 40, Polystyrene: true, K: 4, SkipMetrics: true}
	sc := MustNew(cfg)
	defer sc.Close()
	sc.Run(20)
	var buf bytes.Buffer
	if err := sc.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	target := MustNew(cfg)
	defer target.Close()
	if err := target.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	target.Run(1)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("first round after restoring %d nodes: %d allocations, %d B", cfg.W*cfg.H, allocs, after.TotalAlloc-before.TotalAlloc)
	if allocs > 64 {
		t.Errorf("the first round after a restore makes %d allocations, want at most 64", allocs)
	}
}

// TestWarmStartedSweeps pins the warm-start path the repo benchmark's
// reshaping cells take: MeasureReshapingFrom over one ConvergedSnapshot is
// deterministic, and an engine recycled through an EnginePool reproduces
// the fresh engine's outcome — sequentially and under exchange batching.
func TestWarmStartedSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell warm-start run; exercised by CI's dedicated race step")
	}
	for _, workers := range []int{0, 2} {
		base := Config{Seed: 7, W: 16, H: 8, Polystyrene: true, K: 4, ExchangeParallelism: workers}
		warm, err := ConvergedSnapshot(base, 8)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ConvergedSnapshot(base, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, warm) {
			t.Fatalf("workers=%d: ConvergedSnapshot is not deterministic", workers)
		}
		pool := NewEnginePool()
		for rep := 0; rep < 2; rep++ {
			cfg := base
			cfg.Seed = CellSeed(base.Seed, "warm", uint64(rep))
			ref, err := MeasureReshapingFrom(cfg, warm, 30)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Reached {
				t.Errorf("workers=%d rep=%d: warm cell never reshaped: %+v", workers, rep, ref)
			}
			if out, err := MeasureReshapingFrom(cfg, warm, 30); err != nil || out != ref {
				t.Errorf("workers=%d rep=%d: warm-started outcome not deterministic: %+v vs %+v (err %v)", workers, rep, out, ref, err)
			}
			pooled := cfg
			release := pool.Acquire(&pooled)
			out, err := MeasureReshapingFrom(pooled, warm, 30)
			release()
			if err != nil || out != ref {
				t.Errorf("workers=%d rep=%d: pooled-engine outcome %+v diverged from fresh %+v (err %v)", workers, rep, out, ref, err)
			}
		}
		pool.Drain()
	}
}

// FuzzSnapshotRoundTrip drives the snapshot codec across seeds, grid
// sizes, worker counts and mid-run churn: a snapshot restored into a
// fresh scenario must re-serialize to the identical bytes, and both
// scenarios must continue to identical states.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), false)
	f.Add(uint64(42), uint8(3), uint8(2), uint8(2), true)
	f.Add(uint64(7), uint8(1), uint8(5), uint8(4), false)
	f.Add(uint64(99), uint8(6), uint8(1), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed uint64, dw, dh, workers uint8, churn bool) {
		cfg := Config{
			Seed:                seed,
			W:                   6 + int(dw%6),
			H:                   3 + int(dh%4),
			Polystyrene:         true,
			SkipMetrics:         true,
			ExchangeParallelism: int(workers % 5),
		}
		sc := MustNew(cfg)
		defer sc.Close()
		sc.Run(4)
		if churn {
			sc.Engine.Kill(sc.Engine.RandomLive())
			sc.Engine.Kill(sc.Engine.RandomLive())
			sc.Run(2)
			sc.Reinject(1)
			sc.Run(1)
		}
		var a bytes.Buffer
		if err := sc.SnapshotTo(&a); err != nil {
			t.Fatal(err)
		}
		restored := MustNew(cfg)
		defer restored.Close()
		if err := restored.Restore(bytes.NewReader(a.Bytes())); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := restored.SnapshotTo(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("restore → re-snapshot is not byte-identical")
		}
		// Both continue identically.
		sc.Run(3)
		restored.Run(3)
		var a2, b2 bytes.Buffer
		if err := sc.SnapshotTo(&a2); err != nil {
			t.Fatal(err)
		}
		if err := restored.SnapshotTo(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a2.Bytes(), b2.Bytes()) {
			t.Fatal("original and restored scenarios diverged after resume")
		}
	})
}
