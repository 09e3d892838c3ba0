package scenario

import (
	"reflect"
	"runtime"
	"testing"

	"polystyrene/internal/fd"
	"polystyrene/internal/sim"
	"polystyrene/internal/xrand"
)

// paperRun executes a compressed 3-phase paper scenario and returns its
// full per-round metric record plus the final reliability, closing the
// scenario (its exchange workers released).
func paperRun(t *testing.T, cfg Config) (*Result, float64) {
	t.Helper()
	sc, res := runPaper(t, cfg, Phases{FailAt: 8, ReinjectAt: 20, End: 32})
	rel := sc.Reliability()
	sc.Close()
	return res, rel
}

// TestExchangeParallelismByteIdentical pins the tentpole's determinism
// contract at the full-stack level: with intra-round exchange batching
// enabled, every per-round metric series — homogeneity, proximity, data
// points, message cost, liveness — is byte-identical across worker counts
// {1, 2, GOMAXPROCS}, through convergence, the half-torus catastrophe and
// reinjection, for the Polystyrene stack, the baseline, a delayed failure
// detector and a replication factor of K = 2 on a 16x8 grid.
func TestExchangeParallelismByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack exchange-parallel identity run; exercised by CI's dedicated race step")
	}
	cases := map[string]Config{
		"poly-tman":     {Seed: 42, W: 20, H: 10, Polystyrene: true},
		"baseline-tman": {Seed: 42, W: 20, H: 10},
		"delayed-fd":    {Seed: 43, W: 20, H: 10, Polystyrene: true, Detector: fd.NewDelayed(2)},
		"k2":            {Seed: 44, W: 16, H: 8, Polystyrene: true, K: 2},
	}
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for name, base := range cases {
		t.Run(name, func(t *testing.T) {
			if name == "delayed-fd" {
				// The delayed detector records first-seen rounds; give each
				// worker count a fresh instance so runs stay independent.
				base.Detector = nil
			}
			var refRes *Result
			var refRel float64
			for _, workers := range workerCounts {
				cfg := base
				cfg.ExchangeParallelism = workers
				if name == "delayed-fd" {
					cfg.Detector = fd.NewDelayed(2)
				}
				res, rel := paperRun(t, cfg)
				if refRes == nil {
					refRes, refRel = res, rel
					continue
				}
				if !reflect.DeepEqual(res, refRes) {
					t.Fatalf("workers=%d: metric record diverged from workers=%d", workers, workerCounts[0])
				}
				if rel != refRel {
					t.Fatalf("workers=%d: reliability %v, want %v", workers, rel, refRel)
				}
			}
		})
	}
}

// TestExchangeParallelismDetectorFallback pins the graceful degradation
// path: a failure detector that is not fd.ParallelSafe (Probabilistic
// consumes a shared stream, so query order matters) keeps the Polystyrene
// layer on the sequential path while the layers below still batch — and
// results remain byte-identical across worker counts, because the
// sequential fallback draws from the engine stream whose position does
// not depend on the worker count.
func TestExchangeParallelismDetectorFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack exchange-parallel identity run; exercised by CI's dedicated race step")
	}
	run := func(workers int) (*Result, float64) {
		cfg := Config{
			Seed: 9, W: 16, H: 8, Polystyrene: true,
			Detector:            fd.NewProbabilistic(0.5, xrand.New(77)),
			ExchangeParallelism: workers,
		}
		return paperRun(t, cfg)
	}
	refRes, refRel := run(1)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		res, rel := run(workers)
		if !reflect.DeepEqual(res, refRes) || rel != refRel {
			t.Fatalf("workers=%d diverged under the sequential-core fallback", workers)
		}
	}
}

// TestExchangeParallelismChangesTrajectory documents that batching is a
// *different* deterministic trajectory, not a re-ordering of the
// sequential one: pre-splitting per-step streams necessarily changes the
// draw sequence, which is why the engine keeps it opt-in (and why the
// golden sequential tests are untouched by this feature).
func TestExchangeParallelismChangesTrajectory(t *testing.T) {
	seqRes, _ := paperRun(t, Config{Seed: 42, W: 20, H: 10, Polystyrene: true})
	batRes, _ := paperRun(t, Config{Seed: 42, W: 20, H: 10, Polystyrene: true, ExchangeParallelism: 1})
	if reflect.DeepEqual(seqRes, batRes) {
		t.Fatal("batched trajectory reproduced the sequential one exactly; the pre-split stream discipline is not in effect")
	}
	// Both must converge to a recovered shape, though: same physics,
	// different dice.
	last := len(seqRes.Homogeneity) - 1
	if seqRes.LiveNodes[last] != batRes.LiveNodes[last] {
		t.Fatalf("liveness diverged: %d vs %d", seqRes.LiveNodes[last], batRes.LiveNodes[last])
	}
}

// TestExchangeParallelismPlainTManPinned pins the plain T-Man trajectory —
// no Polystyrene, so T-Man ranks over fixed positions under its static
// clock — through convergence, the half-torus catastrophe and
// reinjection, sequentially and at exchange parallelism 2. Each
// fingerprint covers the per-round metric series and every node's final
// ten closest neighbours. (The name keeps it inside CI's race-enabled
// byte-identity steps.)
func TestExchangeParallelismPlainTManPinned(t *testing.T) {
	want := map[int]uint64{0: 0x4c12072460634879, 2: 0x238259d2f418b8a0}
	for _, workers := range []int{0, 2} {
		sc, res := runPaper(t, Config{Seed: 7, W: 20, H: 10, ExchangeParallelism: workers},
			Phases{FailAt: 8, ReinjectAt: 20, End: 32})
		h := resultFingerprint(res)
		var nbrs []sim.NodeID
		for id := 0; id < sc.Engine.NumNodes(); id++ {
			nbrs = sc.topo.AppendNeighbors(nbrs[:0], sim.NodeID(id), 10)
			for _, nb := range nbrs {
				h = (h ^ uint64(nb)) * 1099511628211
			}
			h = (h ^ 0xff) * 1099511628211
		}
		sc.Close()
		if h != want[workers] {
			t.Errorf("workers=%d: plain T-Man fingerprint %#x, want %#x", workers, h, want[workers])
		}
	}
}
