package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fill books replays x steps samples: step s costs s+1 seconds, and
// slowReplay (if >= 0) costs ten times that.
func fill(replays, steps, slowReplay int) *ledger {
	l := newLedger()
	for r := 0; r < replays; r++ {
		for s := 0; s < steps; s++ {
			v := float64(s + 1)
			if r == slowReplay {
				v *= 10
			}
			l.add(roundKey(s), v)
		}
	}
	return l
}

func TestFasterHalf(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{4}, 4},
		{[]float64{5, 3}, 3},
		{[]float64{9, 1, 2}, 1.5},
		{[]float64{4, 1, 3, 2}, 1.5},
		{[]float64{5, 4, 3, 2, 1}, 2},
	} {
		if got := fasterHalf(c.in); got != c.want {
			t.Errorf("fasterHalf(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFloorSumsEachStepsFasterHalf(t *testing.T) {
	sum, steps := fill(5, 3, -1).floor("round/")
	if steps != 3 || math.Abs(sum-6) > 1e-9 {
		t.Fatalf("floor = %v over %d steps, want 6 over 3", sum, steps)
	}
}

func TestOneSlowReplayCannotMoveTheFloor(t *testing.T) {
	clean, _ := fill(5, 3, -1).floor("round/")
	for slow := 1; slow < 5; slow++ {
		if got, _ := fill(5, 3, slow).floor("round/"); got != clean {
			t.Errorf("replay %d slow: floor %v, want %v", slow, got, clean)
		}
	}
	// The median replay, reported beside the floor, does see it.
	if med, _ := fill(2, 3, 1).med("round/"); med <= clean {
		t.Errorf("median %v does not exceed the floor %v", med, clean)
	}
}

func TestFloorTakesEachStepFromItsOwnBestReplay(t *testing.T) {
	l := newLedger()
	l.add("round/0", 1)
	l.add("round/1", 9)
	l.add("round/0", 9)
	l.add("round/1", 2)
	if sum, _ := l.floor("round/"); sum != 3 {
		t.Fatalf("floor = %v, want 3: no single replay was fast on both steps", sum)
	}
	if sum, n := l.floor("round/1"); sum != 2 || n != 1 {
		t.Fatalf("exact selector: %v over %d", sum, n)
	}
}

func TestSliceStatisticIsTheMedianAndTheMetricTheFasterSlices(t *testing.T) {
	if got := median([]float64{10, 11, 12, 500, 9}); got != 11 {
		t.Fatalf("slice statistic = %v, want 11: a stalled request must not move it", got)
	}
	l := newLedger()
	for _, slice := range []float64{14, 11.5, 30, 12} {
		l.add("stat/lookup_us", slice)
	}
	if got, _ := l.floor("stat/lookup_us"); got != 11.75 {
		t.Fatalf("lookup_us = %v, want 11.75: the mean of the two faster slices", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 4, 2, 5, 10, 9, 6, 8, 7}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(v); got != 1 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

func TestReplayCountScalesWithSeconds(t *testing.T) {
	sp, _ := specByName("serve_3200")
	if got := sp.scaled(refSeconds); got != sp.replays {
		t.Errorf("at the reference: %d, want %d", got, sp.replays)
	}
	if got := sp.scaled(2 * refSeconds); got != 2*sp.replays {
		t.Errorf("doubled: %d, want %d", got, 2*sp.replays)
	}
	if got := sp.scaled(1); got != minReplays {
		t.Errorf("one second: %d replays, want the minimum %d", got, minReplays)
	}
}

// small shrinks a workload to a 16x8 grid and a few rounds, keeping its
// script: engine mode, observers, churn, catastrophe and cells.
func small(sp spec) spec {
	sp.w, sp.h = 16, 8
	sp.setups = 1
	sp.setupRounds = min(sp.setupRounds, 8)
	if sp.scratch {
		sp.rounds, sp.failAt, sp.reinjectAt = 24, 8, 16
	}
	return sp
}

func smallRun(sp spec) *run {
	return &run{spec: small(sp), seed: 3, replays: 2, lookups: 100, led: newLedger()}
}

func TestSmokeEveryWorkloadScript(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			r := smallRun(sp)
			defer r.close()
			if err := r.measure(); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", r.failed, r.ops, r.problems)
			}
			for name, m := range r.endToEnd() {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v %s, want a positive number", name, m.Value, m.Unit)
				}
			}
			if sp.cells > 0 && !r.cellOut.Reached {
				t.Errorf("reshaping cell did not reshape: %+v", r.cellOut)
			}
		})
	}
}

func TestFingerprintSeesADifferentTrajectory(t *testing.T) {
	sp, _ := specByName("scale_51200")
	a, b := smallRun(sp), smallRun(sp)
	b.seed++
	defer a.close()
	defer b.close()
	sa, err := a.setup()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.setup()
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := fingerprintOf(scenarioSystem{sa}), fingerprintOf(scenarioSystem{sb})
	if !fa.equal(fingerprintOf(scenarioSystem{sa})) {
		t.Error("a fingerprint differs from itself")
	}
	if fa.equal(fb) {
		t.Error("two seeds share a fingerprint")
	}
}

// The traced run fails unless the hand-wired stack reproduces
// scenario.New's fingerprint, after set-up and after every replay; run
// it on the sequential engine, the batched one, and the paper's script
// with observers, catastrophe and reinjection.
func TestHandWiredStackReproducesScenarioNew(t *testing.T) {
	defer func(n int) { kernelBatches = n }(kernelBatches)
	kernelBatches = 1
	for _, name := range []string{"scale_51200", "scale_51200_w2", "paper_3200"} {
		t.Run(name, func(t *testing.T) {
			sp, _ := specByName(name)
			r := smallRun(sp)
			r.replays = 4 // traced halves it
			defer r.close()
			path := filepath.Join(t.TempDir(), "spans.json")
			out, err := r.traced(path)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%d operations failed: %v", r.failed, r.problems)
			}
			out = perLayerResult(out)
			planned := out["sim.plan_calls"].Value
			if (sp.workers > 0) != (planned > 0) {
				t.Errorf("workers=%d but sim.plan_calls=%v", sp.workers, planned)
			}
			nodes := float64(r.spec.w * r.spec.h)
			if got := out["rps.steps"].Value; !sp.scratch && got != nodes {
				t.Errorf("rps.steps = %v per round, want %v", got, nodes)
			}
			for _, m := range []string{"rps.pass_s", "tman.pass_s", "core.pass_s", "core.cost_units"} {
				if !(out[m].Value > 0) {
					t.Errorf("%s = %v, want > 0", m, out[m].Value)
				}
			}
			if (out["metrics.homogeneity_s"].Value > 0) != sp.observers {
				t.Errorf("metrics.homogeneity_s = %v with observers=%v", out["metrics.homogeneity_s"].Value, sp.observers)
			}
			var spans []span
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &spans)
			}
			if err != nil || len(spans) == 0 {
				t.Fatalf("spans file: %d spans, err %v", len(spans), err)
			}
			for i, s := range spans {
				if s.End < s.Start || s.Parent >= i {
					t.Fatalf("span %d malformed: %+v", i, s)
				}
			}
		})
	}
}

// BENCHMARK.json names what this program prints.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in specs", i, w.Name, specs[i].name)
		}
	}
	sp, _ := specByName("paper_3200")
	r := smallRun(sp)
	defer r.close()
	if err := r.measure(); err != nil {
		t.Fatal(err)
	}
	e2e := r.endToEnd()
	if len(bf.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, the program prints %d", len(bf.EndToEnd), len(e2e))
	}
	for _, m := range bf.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s [%s]: the program prints %+v (present: %v)", m.Name, m.Unit, got, ok)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
