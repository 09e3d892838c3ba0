package scenario

import (
	"fmt"
	"math"
	"testing"

	"polystyrene/internal/core"
	"polystyrene/internal/metrics"
)

// smallCfg is a fast, unit-test-scale version of the paper's setup.
func smallCfg(seed uint64, poly bool) Config {
	return Config{Seed: seed, W: 20, H: 10, Polystyrene: poly, K: 4}
}

// smallPhases scales the paper's phases down to a 20x10 grid.
func smallPhases() Phases { return Phases{FailAt: 15, ReinjectAt: 50, End: 90} }

// runPaper wires cfg and drives the paper's three phases up to ph.End,
// returning the scenario in its final state and its per-round record.
func runPaper(t *testing.T, cfg Config, ph Phases) (*Scenario, *Result) {
	t.Helper()
	sc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	DrivePhases(sc, ph, ph.End, nil)
	return sc, sc.Result()
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.W != 80 || cfg.H != 40 || cfg.K != core.DefaultK || cfg.Split != core.SplitAdvanced {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestPhasesValidate(t *testing.T) {
	if err := PaperPhases().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Phases{
		{FailAt: 0, ReinjectAt: 10, End: 20},
		{FailAt: 30, ReinjectAt: 10, End: 20},
		{FailAt: 5, ReinjectAt: 10, End: 9},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("phases %+v validated", p)
		}
	}
}

func TestInitialPopulation(t *testing.T) {
	sc := MustNew(smallCfg(1, true))
	if sc.Engine.NumNodes() != 200 {
		t.Fatalf("population %d, want 200", sc.Engine.NumNodes())
	}
	if len(sc.Points) != 200 {
		t.Fatalf("points %d, want 200", len(sc.Points))
	}
	// Reference homogeneity of the full grid: 0.5*sqrt(200/200) = 0.5.
	if got := sc.ReferenceHomogeneity(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("H = %v, want 0.5", got)
	}
}

func TestConvergencePhase(t *testing.T) {
	for _, poly := range []bool{false, true} {
		sc := MustNew(smallCfg(2, poly))
		sc.Run(15)
		res := sc.Result()
		if got := res.Proximity[14]; got > 1.1 {
			t.Errorf("poly=%v: proximity after convergence %v, want ~1", poly, got)
		}
		if got := res.Homogeneity[14]; got > 0.2 {
			t.Errorf("poly=%v: homogeneity after convergence %v, want ~0", poly, got)
		}
	}
}

func TestFailRightHalfKillsHalf(t *testing.T) {
	sc := MustNew(smallCfg(3, true))
	sc.Run(15)
	killed := sc.FailRightHalf()
	if killed < 90 || killed > 110 {
		t.Fatalf("killed %d of 200, want ~100", killed)
	}
	if sc.Engine.NumLive() != 200-killed {
		t.Fatalf("live %d after killing %d", sc.Engine.NumLive(), killed)
	}
}

func TestPolystyreneReshapesTManDoesNot(t *testing.T) {
	// The paper's headline comparison (Fig. 6a) at test scale: after the
	// half-torus catastrophe, Polystyrene's homogeneity drops below the
	// reference H while plain T-Man stays far above it.
	phases := smallPhases()

	scP, resP := runPaper(t, smallCfg(4, true), phases)
	scT, resT := runPaper(t, smallCfg(4, false), phases)

	// Reference H for ~100 survivors on a 200-cell torus ~ 0.5*sqrt(2).
	checkRound := phases.ReinjectAt - 1
	hP := resP.Homogeneity[checkRound]
	hT := resT.Homogeneity[checkRound]
	refP := 0.5 * math.Sqrt(float64(200)/float64(resP.LiveNodes[checkRound]))
	if hP >= refP {
		t.Errorf("Polystyrene homogeneity %v did not drop below H=%v", hP, refP)
	}
	if hT < 2*refP {
		t.Errorf("plain T-Man homogeneity %v unexpectedly recovered (H=%v)", hT, refP)
	}
	// On the full 80x40 grid the gap is ~8.6x (5.25 vs 0.61); on this small
	// 20-wide torus the lost half is nearer to the survivors, so the
	// margin shrinks — 2.5x still asserts the qualitative separation.
	if hT < 2.5*hP {
		t.Errorf("expected Polystyrene (h=%v) to beat T-Man (h=%v) by a wide margin", hP, hT)
	}
	_ = scP
	_ = scT
}

func TestReinjectionRebalances(t *testing.T) {
	phases := smallPhases()
	sc, res := runPaper(t, smallCfg(5, true), phases)
	// After reinjection the node count is back to ~200 and homogeneity
	// approaches the full-population reference 0.5 (paper: an order of
	// magnitude below the T-Man baseline of ~0.35 on their grid; on this
	// small grid we assert it simply returns below H).
	last := phases.End - 1
	if res.LiveNodes[last] < 190 {
		t.Fatalf("live %d at the end, want ~200", res.LiveNodes[last])
	}
	if got := res.Homogeneity[last]; got > 0.5 {
		t.Errorf("homogeneity after reinjection %v, want < 0.5", got)
	}
	if got := res.Proximity[last]; got > 1.3 {
		t.Errorf("proximity after reinjection %v, want ~1", got)
	}
	_ = sc
}

func TestTManReinjectionStaysOffset(t *testing.T) {
	// Plain T-Man reinjected nodes sit on the offset grid and never adopt
	// the original points: homogeneity converges to ~ mean(0, step/sqrt(2))
	// (≈ 0.35 for step 1, paper Sec. IV-B).
	phases := smallPhases()
	_, res := runPaper(t, smallCfg(6, false), phases)
	got := res.Homogeneity[phases.End-1]
	want := (0 + math.Sqrt2/2) / 2
	if math.Abs(got-want) > 0.1 {
		t.Errorf("T-Man homogeneity after reinjection %v, want ~%v", got, want)
	}
}

func TestMemoryOverheadTracksK(t *testing.T) {
	// Before the failure the system stores K+1 copies per point: the
	// memory metric should sit near K+1 data points per node (Fig. 7a).
	for _, k := range []int{2, 4} {
		cfg := smallCfg(7, true)
		cfg.K = k
		sc := MustNew(cfg)
		sc.Run(15)
		got := sc.Result().DataPoints[14]
		want := float64(k + 1)
		if math.Abs(got-want) > 0.5 {
			t.Errorf("K=%d: data points per node %v, want ~%v", k, got, want)
		}
	}
}

func TestMessageCostDominatedByTMan(t *testing.T) {
	// Fig. 7b: most communication is T-Man's; Polystyrene adds little.
	cfg := smallCfg(8, true)
	sc := MustNew(cfg)
	sc.Run(15)
	m := sc.Engine.Meter()
	tmanCost := m.TotalCost("tman")
	polyCost := m.TotalCost("polystyrene")
	if tmanCost == 0 {
		t.Fatal("no T-Man cost recorded")
	}
	frac := float64(tmanCost) / float64(tmanCost+polyCost)
	if frac < 0.6 {
		t.Errorf("T-Man share of traffic %.2f, want dominant (paper: ~0.94)", frac)
	}
}

func TestMeasureReshaping(t *testing.T) {
	cfg := smallCfg(9, true)
	out, err := MeasureReshaping(cfg, 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reached {
		t.Fatalf("reshaping never completed within 40 rounds")
	}
	if out.Rounds < 1 || out.Rounds > 25 {
		t.Errorf("reshaping time %d rounds, expected a small number", out.Rounds)
	}
	// K=4, pf=0.5: expected reliability ≈ 1-0.5^5 = 96.9%.
	if out.Reliability < 0.9 {
		t.Errorf("reliability %v, want > 0.9", out.Reliability)
	}
}

func TestTableIIOrdering(t *testing.T) {
	// Higher K ⇒ better reliability (Table II), and every run reshapes
	// within the budget. Seeds are derived per (K, rep) like grid cells.
	measure := func(k int) (reliability float64, missed int) {
		const reps = 3
		for rep := 0; rep < reps; rep++ {
			cfg := smallCfg(10, true)
			cfg.K = k
			cfg.Seed = CellSeed(10, "tableII", uint64(k), uint64(rep))
			out, err := MeasureReshaping(cfg, 15, 40)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Reached {
				missed++
			}
			reliability += out.Reliability / reps
		}
		return reliability, missed
	}
	r2, missed2 := measure(2)
	r8, missed8 := measure(8)
	if r8 <= r2 {
		t.Errorf("reliability K=8 (%.1f%%) not above K=2 (%.1f%%)", 100*r8, 100*r2)
	}
	if missed2 > 0 || missed8 > 0 {
		t.Errorf("some runs never reshaped: K2=%d K8=%d", missed2, missed8)
	}
}

func TestSnapshot(t *testing.T) {
	sc := MustNew(smallCfg(12, true))
	sc.Run(10)
	snap := sc.Snapshot()
	if len(snap) != 200 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	for _, ns := range snap {
		if ns.Pos == nil {
			t.Fatalf("node %d has nil position", ns.ID)
		}
		if len(ns.Neighbors) == 0 {
			t.Fatalf("node %d has no neighbours in snapshot", ns.ID)
		}
		if len(ns.Neighbors) > 4 {
			t.Fatalf("node %d has %d neighbours, cap 4", ns.ID, len(ns.Neighbors))
		}
	}
}

func TestSplitFunctionAffectsReshaping(t *testing.T) {
	// Fig. 10b at test scale: SplitAdvanced must not be slower than
	// SplitBasic on average.
	measure := func(kind core.SplitKind) float64 {
		var total float64
		const reps = 3
		for rep := 0; rep < reps; rep++ {
			cfg := smallCfg(uint64(13+rep), true)
			cfg.Split = kind
			out, err := MeasureReshaping(cfg, 15, 60)
			if err != nil {
				t.Fatal(err)
			}
			total += float64(out.Rounds)
		}
		return total / reps
	}
	basic := measure(core.SplitBasic)
	advanced := measure(core.SplitAdvanced)
	if advanced > basic+2 {
		t.Errorf("advanced split (%.1f rounds) slower than basic (%.1f)", advanced, basic)
	}
}

func TestIndexedMetricsMatchFullScanOracle(t *testing.T) {
	// Every run reads the stack's holders index: the core layer's under
	// Polystyrene, the table of fixed positions under the baseline. The
	// string-keyed full scans are kept as the oracle. Across the whole
	// 3-phase scenario, reinjection included, the two must agree bit for
	// bit under both stacks — this is what licenses recording only the
	// indexed values.
	for _, poly := range []bool{true, false} {
		t.Run(fmt.Sprintf("polystyrene=%v", poly), func(t *testing.T) {
			sc := MustNew(smallCfg(33, poly))
			defer sc.Close()
			phases := smallPhases()
			for round := 0; round < phases.End; round++ {
				if round == phases.FailAt {
					sc.FailRightHalf()
				}
				if round == phases.ReinjectAt {
					sc.Reinject(40)
				}
				sc.Run(1)
				sys := sc.System()
				if got, want := sc.Homogeneity(), metrics.Homogeneity(sys, sc.Points); got != want {
					t.Fatalf("round %d: indexed homogeneity %v != full-scan %v", round, got, want)
				}
				if got, want := sc.Reliability(), metrics.Reliability(sys, sc.Points); got != want {
					t.Fatalf("round %d: indexed reliability %v != full-scan %v", round, got, want)
				}
			}
		})
	}
}

func TestDeterministicScenario(t *testing.T) {
	run := func() []float64 {
		sc := MustNew(smallCfg(42, true))
		sc.Run(10)
		return sc.Result().Homogeneity
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at round %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestReinjectionPositionsOnOffsetGrid(t *testing.T) {
	sc := MustNew(smallCfg(14, true))
	sc.Run(5)
	sc.FailRightHalf()
	ids := sc.Reinject(10)
	for _, id := range ids {
		pos := sc.Poly().Position(id)
		// Offset grid: both coordinates are x.5 for step 1.
		fx := pos[0] - math.Floor(pos[0])
		fy := pos[1] - math.Floor(pos[1])
		if math.Abs(fx-0.5) > 1e-9 || math.Abs(fy-0.5) > 1e-9 {
			t.Fatalf("reinjected node %d at %v, want half-step offsets", id, pos)
		}
	}
}
