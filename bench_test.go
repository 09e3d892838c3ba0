// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation section (Sec. IV). Each benchmark runs the corresponding
// experiment at a laptop-friendly scale (the scripts/paper/ specs run the
// full 80x40 = 3200-node and up-to-51200-node versions through poly grid) and reports the
// domain results via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the paper's rows/series alongside the timing data:
//
//	Fig. 1   — BenchmarkFig1TManShapeLoss       (occupancy collapse)
//	Fig. 6a  — BenchmarkFig6aHomogeneity        (poly vs tman homogeneity)
//	Fig. 6b  — BenchmarkFig6bProximity          (poly vs tman proximity)
//	Fig. 7a  — BenchmarkFig7aMemoryOverhead     (data points per node)
//	Fig. 7b  — BenchmarkFig7bMessageCost        (units per node per round)
//	Fig. 8   — BenchmarkFig8RepairSnapshot      (occupancy during repair)
//	Fig. 9   — BenchmarkFig9Reinjection         (homogeneity after reinjection)
//	Table II — BenchmarkTableIIReshaping        (reshaping time & reliability per K)
//	Fig. 10a — BenchmarkFig10aScalability       (reshaping time vs network size)
//	Fig. 10b — BenchmarkFig10bSplitAblation     (reshaping time per split function)
//
// Scale note: benches use a 40x20 torus (800 nodes) and compressed phases
// (fail at 20, reinject at 60, end at 100); the benches check the
// published shape — who wins, by what factor, where the crossovers sit —
// and the full-scale numbers come from the scripts/paper/ specs
// (ARCHITECTURE.md, "The paper's results as specs").
package polystyrene

import (
	"fmt"
	"testing"

	"polystyrene/internal/core"
	"polystyrene/internal/scenario"
	"polystyrene/internal/space"
	"polystyrene/internal/trace"
	"polystyrene/internal/viz"
)

// benchGrid is the bench-scale torus (the paper uses 80x40).
const (
	benchW = 40
	benchH = 20
)

func benchPhases() scenario.Phases {
	return scenario.Phases{FailAt: 20, ReinjectAt: 60, End: 100}
}

func benchCfg(seed uint64, poly bool, k int) scenario.Config {
	return scenario.Config{Seed: seed, W: benchW, H: benchH, Polystyrene: poly, K: k}
}

// runPaper wires cfg and drives the paper's three phases up to ph.End,
// returning the scenario in its final state and its per-round record.
func runPaper(tb testing.TB, cfg scenario.Config, ph scenario.Phases) (*scenario.Scenario, *scenario.Result) {
	tb.Helper()
	sc, err := scenario.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	scenario.DrivePhases(sc, ph, ph.End, nil)
	return sc, sc.Result()
}

// runPaperBench executes the 3-phase scenario once per b.N iteration and
// returns the last iteration's result.
func runPaperBench(b *testing.B, cfg scenario.Config) *scenario.Result {
	b.Helper()
	var res *scenario.Result
	for i := 0; i < b.N; i++ {
		_, res = runPaper(b, cfg, benchPhases())
	}
	return res
}

// BenchmarkFig1TManShapeLoss reproduces Fig. 1: plain T-Man heals its
// links after the half-torus crash but the shape is gone — half the
// density cells stay empty.
func BenchmarkFig1TManShapeLoss(b *testing.B) {
	var occBefore, occAfter float64
	for i := 0; i < b.N; i++ {
		sc := scenario.MustNew(scenario.Config{
			Seed: 1, W: benchW, H: benchH, Polystyrene: false, SkipMetrics: true,
		})
		sc.Run(20)
		occBefore = viz.OccupancyStats(sc.Space, sc.Snapshot(), benchW/2, benchH/2)
		sc.FailRightHalf()
		sc.Run(30)
		occAfter = viz.OccupancyStats(sc.Space, sc.Snapshot(), benchW/2, benchH/2)
	}
	b.ReportMetric(100*occBefore, "occupancy_before_%")
	b.ReportMetric(100*occAfter, "occupancy_after_%")
}

// BenchmarkFig6aHomogeneity reproduces Fig. 6a: homogeneity over the full
// 3-phase scenario for Polystyrene (K=4) vs plain T-Man. The paper's
// shape: Polystyrene re-converges below H after the crash and near zero
// after reinjection; T-Man stays flat and high.
func BenchmarkFig6aHomogeneity(b *testing.B) {
	phases := benchPhases()
	for name, poly := range map[string]bool{"polystyrene_K4": true, "tman": false} {
		b.Run(name, func(b *testing.B) {
			res := runPaperBench(b, benchCfg(1, poly, 4))
			b.ReportMetric(res.Homogeneity[phases.FailAt+8], "homog_postfail_r+8")
			b.ReportMetric(res.Homogeneity[phases.End-1], "homog_final")
		})
	}
}

// BenchmarkFig6bProximity reproduces Fig. 6b: Polystyrene's neighbourhoods
// stay nearly as tight as T-Man's throughout the scenario.
func BenchmarkFig6bProximity(b *testing.B) {
	phases := benchPhases()
	for name, poly := range map[string]bool{"polystyrene_K4": true, "tman": false} {
		b.Run(name, func(b *testing.B) {
			res := runPaperBench(b, benchCfg(2, poly, 4))
			b.ReportMetric(res.Proximity[phases.FailAt+8], "prox_postfail_r+8")
			b.ReportMetric(res.Proximity[phases.End-1], "prox_final")
		})
	}
}

// BenchmarkFig7aMemoryOverhead reproduces Fig. 7a: data points per node is
// ~K+1 before the crash, spikes just after it (eager re-replication of
// reactivated ghosts), and settles at ~2(K+1) while half the fleet is
// down.
func BenchmarkFig7aMemoryOverhead(b *testing.B) {
	phases := benchPhases()
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			res := runPaperBench(b, benchCfg(3, true, k))
			b.ReportMetric(res.DataPoints[phases.FailAt-1], "points_prefail")
			b.ReportMetric(res.DataPoints[phases.FailAt+1], "points_spike")
			b.ReportMetric(res.DataPoints[phases.ReinjectAt-1], "points_stable")
		})
	}
}

// BenchmarkFig7bMessageCost reproduces Fig. 7b: total communication is
// dominated by T-Man; Polystyrene adds only migration and (incremental)
// backup traffic on top.
func BenchmarkFig7bMessageCost(b *testing.B) {
	phases := benchPhases()
	for name, poly := range map[string]bool{"polystyrene_K8": true, "tman": false} {
		b.Run(name, func(b *testing.B) {
			k := 8
			var tmanShare float64
			var res *scenario.Result
			for i := 0; i < b.N; i++ {
				sc, r := runPaper(b, benchCfg(4, poly, k), phases)
				res = r
				m := sc.Engine.Meter()
				total := m.TotalCost("tman") + m.TotalCost("polystyrene")
				if total > 0 {
					tmanShare = float64(m.TotalCost("tman")) / float64(total)
				}
			}
			b.ReportMetric(res.MsgCost[phases.ReinjectAt-1], "units_per_node_round")
			b.ReportMetric(100*tmanShare, "tman_share_%")
		})
	}
}

// BenchmarkFig8RepairSnapshot reproduces Fig. 8: shortly after the crash
// the shape is already repaired — occupancy of the crashed half returns to
// ~100% within ~8 rounds (paper: repair completed by round 28, i.e. 8
// rounds after the failure, K=4).
func BenchmarkFig8RepairSnapshot(b *testing.B) {
	var occStart, occDone float64
	for i := 0; i < b.N; i++ {
		sc := scenario.MustNew(scenario.Config{
			Seed: 5, W: benchW, H: benchH, Polystyrene: true, K: 4, SkipMetrics: true,
		})
		sc.Run(20)
		sc.FailRightHalf()
		sc.Run(2) // repair started (paper Fig. 8a: r = 22)
		occStart = viz.OccupancyStats(sc.Space, sc.Snapshot(), benchW/2, benchH/2)
		sc.Run(6) // repair completed (paper Fig. 8b: r = 28)
		occDone = viz.OccupancyStats(sc.Space, sc.Snapshot(), benchW/2, benchH/2)
	}
	b.ReportMetric(100*occStart, "occupancy_r+2_%")
	b.ReportMetric(100*occDone, "occupancy_r+8_%")
}

// BenchmarkFig9Reinjection reproduces Fig. 9: after fresh nodes are
// injected, Polystyrene redistributes data points onto them and reaches a
// homogeneity an order of magnitude below plain T-Man's plateau (~0.35 for
// a unit grid, the offset-grid floor).
func BenchmarkFig9Reinjection(b *testing.B) {
	phases := benchPhases()
	for name, poly := range map[string]bool{"polystyrene_K4": true, "tman": false} {
		b.Run(name, func(b *testing.B) {
			res := runPaperBench(b, benchCfg(6, poly, 4))
			b.ReportMetric(res.Homogeneity[phases.End-1], "homog_after_reinject")
		})
	}
}

// BenchmarkTableIIReshaping reproduces Table II: reshaping time grows with
// K while reliability approaches 1 - 0.5^(K+1) (87.5% / 96.9% / 99.8%).
func BenchmarkTableIIReshaping(b *testing.B) {
	const reps = 3
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			var rounds, reliability float64
			for i := 0; i < b.N; i++ {
				rounds, reliability = 0, 0
				for rep := 0; rep < reps; rep++ {
					cfg := benchCfg(scenario.CellSeed(7, "tableII", uint64(k), uint64(rep)), true, k)
					out, err := scenario.MeasureReshaping(cfg, 20, 60)
					if err != nil {
						b.Fatal(err)
					}
					rounds += float64(out.Rounds) / reps
					reliability += 100 * out.Reliability / reps
				}
			}
			b.ReportMetric(rounds, "reshaping_rounds")
			b.ReportMetric(reliability, "reliability_%")
		})
	}
}

// BenchmarkFig10aScalability reproduces Fig. 10a: reshaping time grows
// roughly logarithmically with network size for each K (scripts/paper/
// fig10a.json extends the sweep to the paper's 51 200 nodes). The
// unsuffixed variants run the sequential engine; the _w2 variants run the
// same cells under intra-round exchange batching with two workers (the
// grid's exchange_parallelism axis) — a different, equally valid deterministic
// trajectory, so their reshaping_rounds may differ slightly from the
// sequential ones while the published growth shape is preserved.
func BenchmarkFig10aScalability(b *testing.B) {
	for _, size := range [][2]int{{16, 8}, {40, 20}, {80, 40}} {
		for _, k := range []int{2, 8} {
			for _, workers := range []int{0, 2} {
				name := fmt.Sprintf("N%d_K%d", size[0]*size[1], k)
				if workers > 0 {
					if k != 2 {
						continue // one parallel series tracks the scheduler
					}
					name = fmt.Sprintf("%s_w%d", name, workers)
				}
				b.Run(name, func(b *testing.B) {
					var rounds float64
					for i := 0; i < b.N; i++ {
						cfg := scenario.Config{
							Seed: 8, W: size[0], H: size[1], Polystyrene: true, K: k,
							ExchangeParallelism: workers,
						}
						out, err := scenario.MeasureReshaping(cfg, 20, 80)
						if err != nil {
							b.Fatal(err)
						}
						rounds = float64(out.Rounds)
					}
					b.ReportMetric(rounds, "reshaping_rounds")
				})
			}
		}
	}
}

// BenchmarkFig10bSplitAblation reproduces Fig. 10b: the split heuristics
// dominate convergence speed. The measured order is advanced ≈ pd < md ≈
// basic: the diameter split (PD) carries the gain and MD adds nothing to
// it, and the gap widens with size, to 9 against 27 rounds at the paper's
// largest scale (scripts/paper/fig10b.json).
func BenchmarkFig10bSplitAblation(b *testing.B) {
	for _, kind := range []core.SplitKind{core.SplitBasic, core.SplitMD, core.SplitPD, core.SplitAdvanced} {
		b.Run(kind.String(), func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.Config{
					Seed: 9, W: benchW * 2, H: benchH * 2, // larger grid separates the curves
					Polystyrene: true, K: 4, Split: kind,
				}
				out, err := scenario.MeasureReshaping(cfg, 20, 120)
				if err != nil {
					b.Fatal(err)
				}
				rounds = float64(out.Rounds)
			}
			b.ReportMetric(rounds, "reshaping_rounds")
		})
	}
}

// BenchmarkAppRouting quantifies the paper's routing motivation (Sec. I):
// greedy geometric routing into the crashed half of the torus lands ~on
// target over a Polystyrene-recovered shape and stalls half a torus away
// over the collapsed baseline.
func BenchmarkAppRouting(b *testing.B) {
	probes := []space.Point{{30, 10}, {25, 5}, {35, 15}, {32, 2}, {28, 18}}
	for name, poly := range map[string]bool{"polystyrene": true, "tman": false} {
		b.Run(name, func(b *testing.B) {
			var meanDist, meanHops float64
			for i := 0; i < b.N; i++ {
				sc := scenario.MustNew(scenario.Config{
					Seed: 13, W: benchW, H: benchH, Polystyrene: poly, K: 4, SkipMetrics: true,
				})
				sc.Run(20)
				sc.FailRightHalf()
				sc.Run(20)
				var sumDist float64
				hops := 0
				src := sc.Engine.LiveIDs()[0]
				for _, target := range probes {
					_, d, n, _ := sc.Descend(src, target, 4)
					sumDist += d
					hops += n
				}
				meanDist = sumDist / float64(len(probes))
				meanHops = float64(hops) / float64(len(probes))
			}
			b.ReportMetric(meanDist, "final_distance")
			b.ReportMetric(meanHops, "hops")
		})
	}
}

// BenchmarkExtensionChurn measures the sustained-churn extension: shape
// retention (homogeneity vs reference H) under 1% per-round churn with
// replacement — the regime the paper's conclusion points at. It converges
// for 20 rounds, churns for 30 and settles for 20, the window of
// scripts/paper/churn.json.
func BenchmarkExtensionChurn(b *testing.B) {
	const failAt, churnRounds, settle = 20, 30, 20
	sched, err := trace.UniformChurn(benchW*benchH, churnRounds, 0.01, 14)
	if err != nil {
		b.Fatal(err)
	}
	for i := range sched.Events {
		sched.Events[i].Round += failAt
	}
	var h, ref, rel float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(14, true, 6)
		cfg.SkipMetrics = true
		sc := scenario.MustNew(cfg)
		if err := scenario.DriveSchedule(sc, sched, failAt+churnRounds+settle, nil); err != nil {
			b.Fatal(err)
		}
		h, ref, rel = sc.Homogeneity(), sc.ReferenceHomogeneity(), sc.Reliability()
		sc.Close()
	}
	b.ReportMetric(h, "homogeneity")
	b.ReportMetric(ref, "reference_H")
	b.ReportMetric(100*rel, "reliability_%")
}
