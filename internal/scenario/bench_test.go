package scenario

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"polystyrene/internal/ckpt"
	"polystyrene/internal/metrics"
	"polystyrene/internal/trace"
	"polystyrene/internal/xrand"
)

// BenchmarkMetricsRound measures one full per-round metrics sweep
// (homogeneity, reliability, proximity, data points per node) over a
// post-catastrophe population — exactly what the record observer and the
// reshaping-time stop condition pay every round. The "indexed" variant
// reads the Polystyrene layer's guests⁻¹ table; "fullscan" is
// the string-keyed rebuild-and-scan path the plain-T-Man baseline, which
// has no holders index, runs on.
func BenchmarkMetricsRound(b *testing.B) {
	mkScenario := func() *Scenario {
		sc := MustNew(Config{Seed: 21, W: 40, H: 20, Polystyrene: true, K: 4, SkipMetrics: true})
		sc.Run(20)
		sc.FailRightHalf()
		sc.Run(10)
		return sc
	}
	b.Run("indexed", func(b *testing.B) {
		sc := mkScenario()
		sys := sc.System()
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += metrics.HomogeneityIndexed(sys, sc.Poly(), sc.Points, sc.PointIDs)
			sink += metrics.ReliabilityIndexed(sys, sc.Poly(), sc.PointIDs)
			sink += metrics.Proximity(sys, neighborK)
			sink += metrics.DataPointsPerNode(sys)
		}
		_ = sink
	})
	b.Run("fullscan", func(b *testing.B) {
		sc := mkScenario()
		sys := sc.System()
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += metrics.Homogeneity(sys, sc.Points)
			sink += metrics.Reliability(sys, sc.Points)
			sink += metrics.Proximity(sys, neighborK)
			sink += metrics.DataPointsPerNode(sys)
		}
		_ = sink
	})
}

// BenchmarkProximityRound isolates the neighbour-query cost of the
// per-round metric loop: the proximity sweep asks every live node for its
// 4 closest overlay neighbours, through metrics.Proximity over the
// zero-copy EachNeighbor visitor.
func BenchmarkProximityRound(b *testing.B) {
	mkScenario := func() *Scenario {
		sc := MustNew(Config{Seed: 21, W: 40, H: 20, Polystyrene: true, K: 4, SkipMetrics: true})
		sc.Run(20)
		sc.FailRightHalf()
		sc.Run(10)
		return sc
	}
	b.Run("each", func(b *testing.B) {
		sc := mkScenario()
		sys := sc.System()
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += metrics.Proximity(sys, neighborK)
		}
		_ = sink
	})
}

// BenchmarkParallelRound measures one steady-state full-stack round
// (RPS + T-Man + Polystyrene) at the paper's largest configuration —
// 51,200 nodes on the 320x160 torus — across intra-round exchange worker
// counts. w=0 is the legacy sequential engine; w>=1 runs the batched
// scheduler (same physics, byte-identical across every w>=1), so the
// variants expose both the scheduler's constant overhead (w=1 vs w=0:
// planning and batching are sequential work on top of stepping) and its
// scaling (w=2..GOMAXPROCS). Since the persistent worker pool, the w>=2
// variants also pin the no-per-batch-spawns contract: their allocs/op
// must stay at the w=1 level.
func BenchmarkParallelRound(b *testing.B) {
	const convergeRounds = 5
	counts := []int{0, 1, 2, 4}
	if gm := runtime.GOMAXPROCS(0); !slices.Contains(counts, gm) {
		counts = append(counts, gm)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			sc := MustNew(Config{
				Seed: 5, W: 320, H: 160, Polystyrene: true, K: 4,
				SkipMetrics: true, ExchangeParallelism: w,
			})
			b.Cleanup(sc.Close)
			sc.Run(convergeRounds)
			b.ReportAllocs()
			b.ResetTimer()
			sc.Run(b.N)
		})
	}
}

// BenchmarkSnapshotRestore measures checkpointing the paper's largest
// configuration — 51,200 nodes on the 320x160 torus — and restoring it
// into an already wired scenario: the per-checkpoint cost a long poly sim
// run pays, and the per-cell cost a warm-started sweep pays. Bytes/op is
// the serialized snapshot size, so MB/s reads as checkpoint throughput.
func BenchmarkSnapshotRestore(b *testing.B) {
	cfg := Config{Seed: 5, W: 320, H: 160, Polystyrene: true, K: 4, SkipMetrics: true}
	sc := MustNew(cfg)
	b.Cleanup(sc.Close)
	sc.Run(5)
	var buf bytes.Buffer
	if err := sc.SnapshotTo(&buf); err != nil {
		b.Fatal(err)
	}
	size := int64(buf.Len())

	b.Run("snapshot", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := sc.SnapshotTo(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		dst := MustNew(cfg)
		b.Cleanup(dst.Close)
		data := buf.Bytes()
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dst.Restore(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAutoCheckpoint measures the durable-checkpoint tax on a
// 51,200-node soak: each iteration is one engine round driven through an
// AutoCheckpointer that writes atomic, fsynced, checksummed generations
// (keep 2) into a temporary directory. every=0 is the no-checkpoint
// baseline round, every=1 pays a full durable generation on every
// round, and every=16 is a realistic soak cadence whose amortized cost
// should sit near the baseline. Warm-up runs to round 16 so the cadence
// fires on the first timed iteration even at -benchtime 1x.
func BenchmarkAutoCheckpoint(b *testing.B) {
	cfg := Config{Seed: 5, W: 320, H: 160, Polystyrene: true, K: 4, SkipMetrics: true}
	for _, every := range []int{0, 1, 16} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			sc := MustNew(cfg)
			b.Cleanup(sc.Close)
			sc.Run(16)
			mgr, err := ckpt.NewManager(ckpt.Options{Dir: b.TempDir(), Kind: SnapshotKind, Keep: 2})
			if err != nil {
				b.Fatal(err)
			}
			auto := NewAutoCheckpointer(sc, mgr, every)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := auto.MaybeSave(sc.Engine.Round()); err != nil {
					b.Fatal(err)
				}
				sc.Run(1)
			}
		})
	}
}

// BenchmarkScheduleReplay measures one trace-replayed round at the
// paper's largest configuration — 51,200 nodes on the 320x160 torus under
// 0.1% uniform churn with replacement — against the equivalent in-band
// churn round, whose victims are drawn live from an RNG as the run goes.
// The replay variant pays event lookup, join-identity verification and
// the kills/joins themselves on top of the same full-stack exchanges, so
// the delta is the price of replayable, checkpoint-composable
// availability schedules.
func BenchmarkScheduleReplay(b *testing.B) {
	const rate = 0.001
	const convergeRounds = 5
	cfg := Config{Seed: 5, W: 320, H: 160, Polystyrene: true, K: 4, SkipMetrics: true}
	b.Run("replay", func(b *testing.B) {
		// The script covers far more rounds than any realistic benchtime
		// reaches; rounds beyond it replay event-free.
		const horizon = 2048
		sched, err := trace.UniformChurn(cfg.W*cfg.H, horizon, rate, 77)
		if err != nil {
			b.Fatal(err)
		}
		sc := MustNew(cfg)
		b.Cleanup(sc.Close)
		// Convergence happens inside the drive so the event ledger and the
		// engine population stay reconciled.
		if err := DriveSchedule(sc, sched, convergeRounds); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := DriveSchedule(sc, sched, convergeRounds+b.N); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("inband", func(b *testing.B) {
		sc := MustNew(cfg)
		b.Cleanup(sc.Close)
		sc.Run(convergeRounds)
		rng := xrand.New(77)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			live := sc.Engine.LiveIDs()
			kills := int(rate * float64(len(live)))
			for _, idx := range rng.Sample(len(live), kills) {
				sc.Engine.Kill(live[idx])
			}
			sc.Reinject(kills)
			sc.Run(1)
		}
	})
}

// BenchmarkMeasureReshaping measures the full-stack reshaping experiment
// at a small grid — the unit of work every sweep cell executes.
func BenchmarkMeasureReshaping(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := MeasureReshaping(
			Config{Seed: 1, W: 16, H: 8, Polystyrene: true, K: 4}, 15, 40)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Reached {
			b.Fatal("did not reshape")
		}
	}
}
