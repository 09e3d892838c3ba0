package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polystyrene/internal/core"
	"polystyrene/internal/scenario"
	"polystyrene/internal/trace"
)

const smokeSpec = "../../scripts/paper/smoke.json"

func parseValid(t *testing.T, src string) *Spec {
	t.Helper()
	spec, err := Parse([]byte(src), ".")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return spec
}

func TestParseRejects(t *testing.T) {
	valid := `{
		"name": "x", "seed": 1, "rounds": 20,
		"scenarios": [{"name": "paper", "fail_at": 5, "rejoin_at": 10}],
		"sizes": [[16, 8]]
	}`
	parseValid(t, valid) // baseline must parse

	cases := []struct{ name, src, want string }{
		{"unknown top-level key", `{"name":"x","rounds":20,"scenarioz":[],"sizes":[[16,8]]}`, "unknown field"},
		{"unknown scenario key", `{"name":"x","rounds":20,"scenarios":[{"name":"paper","fail_att":5}],"sizes":[[16,8]]}`, "unknown field"},
		{"no name", `{"rounds":20,"scenarios":[{"name":"paper"}],"sizes":[[16,8]]}`, "needs a name"},
		{"no scenarios", `{"name":"x","rounds":20,"scenarios":[],"sizes":[[16,8]]}`, "no scenarios"},
		{"no sizes", `{"name":"x","rounds":20,"scenarios":[{"name":"paper"}],"sizes":[]}`, "no sizes"},
		{"tiny size", `{"name":"x","rounds":20,"scenarios":[{"name":"paper"}],"sizes":[[1,8]]}`, "too small"},
		{"bad k", `{"name":"x","rounds":20,"scenarios":[{"name":"paper"}],"sizes":[[16,8]],"ks":[0]}`, "replication factor"},
		{"bad detector", `{"name":"x","rounds":20,"scenarios":[{"name":"paper"}],"sizes":[[16,8]],"detectors":["psychic"]}`, "unknown detector"},
		{"bad delayed", `{"name":"x","rounds":20,"scenarios":[{"name":"paper"}],"sizes":[[16,8]],"detectors":["delayed:0"]}`, "delayed:N"},
		{"negative exchange", `{"name":"x","rounds":20,"scenarios":[{"name":"paper"}],"sizes":[[16,8]],"exchange_parallelism":[-1]}`, "exchange parallelism"},
		{"unknown scenario name", `{"name":"x","rounds":20,"scenarios":[{"name":"meteor"}],"sizes":[[16,8]]}`, "unknown scenario"},
		{"duplicate label", `{"name":"x","rounds":120,"scenarios":[{"name":"paper"},{"name":"paper"}],"sizes":[[16,8]]}`, "duplicate scenario label"},
		{"field of wrong scenario", `{"name":"x","rounds":20,"scenarios":[{"name":"paper","rate":0.1}],"sizes":[[16,8]]}`, "does not take"},
		{"churn without rate", `{"name":"x","rounds":20,"scenarios":[{"name":"churn"}],"sizes":[[16,8]]}`, "churn rate"},
		{"churn rate 1", `{"name":"x","rounds":20,"scenarios":[{"name":"churn","rate":1.0}],"sizes":[[16,8]]}`, "churn rate"},
		{"no horizon", `{"name":"x","scenarios":[{"name":"churn","rate":0.1}],"sizes":[[16,8]]}`, "horizon"},
		{"flash crowd event order", `{"name":"x","rounds":20,"scenarios":[{"name":"flash-crowd","fail_at":15,"rejoin_at":5}],"sizes":[[16,8]]}`, "fail_at"},
		{"rolling partition overflow", `{"name":"x","rounds":20,"scenarios":[{"name":"rolling-partition","fail_at":15,"bands":4,"stride":3}],"sizes":[[16,8]]}`, "horizon"},
		{"rack failure late rejoin", `{"name":"x","rounds":20,"scenarios":[{"name":"rack-failure","fail_at":5,"rejoin_at":25}],"sizes":[[16,8]]}`, "horizon"},
		{"weibull bad shape", `{"name":"x","rounds":20,"scenarios":[{"name":"weibull","shape":-1}],"sizes":[[16,8]]}`, "shape"},
		{"trace without path", `{"name":"x","rounds":20,"scenarios":[{"name":"trace"}],"sizes":[[16,8]]}`, "trace path"},
		{"paper invalid phases", `{"name":"x","rounds":20,"scenarios":[{"name":"paper","fail_at":30,"rejoin_at":40}],"sizes":[[16,8]]}`, "paper"},
		{"split outside reshape", `{"name":"x","rounds":20,"scenarios":[{"name":"paper","split":"md"}],"sizes":[[16,8]]}`, "does not take"},
		{"reshape unknown split", `{"name":"x","rounds":20,"scenarios":[{"name":"reshape","fail_at":5,"split":"zigzag"}],"sizes":[[16,8]]}`, "split kind"},
		{"reshape fail_at at horizon", `{"name":"x","rounds":20,"scenarios":[{"name":"reshape","fail_at":20}],"sizes":[[16,8]]}`, "fail_at < rounds"},
		{"reshape fail_at zero", `{"name":"x","rounds":20,"scenarios":[{"name":"reshape","fail_at":0}],"sizes":[[16,8]]}`, "fail_at < rounds"},
		{"reshape default fail_at past horizon", `{"name":"x","rounds":20,"scenarios":[{"name":"reshape"}],"sizes":[[16,8]]}`, "fail_at < rounds"},
		{"reshape rejects rejoin_at", `{"name":"x","rounds":40,"scenarios":[{"name":"reshape","rejoin_at":30}],"sizes":[[16,8]]}`, "does not take"},
		{"churn empty window", `{"name":"x","rounds":20,"scenarios":[{"name":"churn","rate":0.1,"fail_at":10,"rejoin_at":10}],"sizes":[[16,8]]}`, "churn window"},
		{"churn window past horizon", `{"name":"x","rounds":20,"scenarios":[{"name":"churn","rate":0.1,"fail_at":5,"rejoin_at":25}],"sizes":[[16,8]]}`, "churn window"},
		{"churn rate 0", `{"name":"x","rounds":20,"scenarios":[{"name":"churn","rate":0}],"sizes":[[16,8]]}`, "churn rate"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src), ".")
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseRejectsMismatchedTrace(t *testing.T) {
	dir := t.TempDir()
	// A trace sized for 64 nodes, offered to a 16x8 (128-node) grid.
	if err := os.WriteFile(dir+"/small.csv",
		[]byte("# polystyrene-schedule v1 initial=64\nround,op,node\n3,leave,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `{"name":"x","rounds":20,"scenarios":[{"name":"trace","trace":"small.csv"}],"sizes":[[16,8]]}`
	_, err := Parse([]byte(src), dir)
	if err == nil || !strings.Contains(err.Error(), "initial population 64") {
		t.Fatalf("mismatched trace accepted (err=%v)", err)
	}
	// Matching population parses.
	if err := os.WriteFile(dir+"/ok.csv",
		[]byte("# polystyrene-schedule v1 initial=128\nround,op,node\n3,leave,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src = `{"name":"x","rounds":20,"scenarios":[{"name":"trace","trace":"ok.csv"}],"sizes":[[16,8]]}`
	if _, err := Parse([]byte(src), dir); err != nil {
		t.Fatalf("matching trace rejected: %v", err)
	}
}

func TestExpandSeedDerivation(t *testing.T) {
	spec := parseValid(t, `{
		"name": "x", "seed": 9, "rounds": 20, "repeats": 2,
		"scenarios": [
			{"name": "churn", "rate": 0.05},
			{"name": "flash-crowd"}
		],
		"sizes": [[16, 8], [16, 16]],
		"ks": [2, 4],
		"detectors": ["perfect", "delayed:2"],
		"exchange_parallelism": [0, 1, 2]
	}`)
	cells := spec.Expand()
	if want := 2 * 2 * 2 * 2 * 3 * 2; len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	seen := make(map[string]bool, len(cells))
	type axes struct {
		label   string
		w, h, k int
		det     string
		rep     int
	}
	engineSeeds := make(map[axes]uint64)
	type schedAxes struct {
		label string
		w, h  int
		rep   int
	}
	schedSeeds := make(map[schedAxes]uint64)
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
		if seen[c.ID()] {
			t.Fatalf("duplicate cell id %s", c.ID())
		}
		seen[c.ID()] = true
		// The engine seed must not depend on exchange parallelism...
		ka := axes{c.Scenario.Label, c.W, c.H, c.K, c.Detector, c.Rep}
		if prev, ok := engineSeeds[ka]; ok {
			if prev != c.Seed {
				t.Errorf("%s: seed varies with exchange parallelism", c.ID())
			}
		} else {
			engineSeeds[ka] = c.Seed
		}
		// ...and the schedule seed only on (scenario, size, rep).
		sa := schedAxes{c.Scenario.Label, c.W, c.H, c.Rep}
		if prev, ok := schedSeeds[sa]; ok {
			if prev != c.ScheduleSeed {
				t.Errorf("%s: schedule seed varies with k/detector/exchange", c.ID())
			}
		} else {
			schedSeeds[sa] = c.ScheduleSeed
		}
	}
	// Distinct axes must get distinct engine seeds.
	distinct := make(map[uint64]axes)
	for ka, s := range engineSeeds {
		if prev, dup := distinct[s]; dup {
			t.Fatalf("axes %+v and %+v share seed %016x", prev, ka, s)
		}
		distinct[s] = ka
	}
	// Expansion is stable: a second expansion is identical.
	again := spec.Expand()
	for i := range cells {
		if cells[i].ID() != again[i].ID() || cells[i].Seed != again[i].Seed {
			t.Fatalf("expansion unstable at cell %d", i)
		}
	}
}

func TestDryRunGolden(t *testing.T) {
	spec, _, err := ParseFile(smokeSpec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGrid(&buf, spec, spec.Expand()); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../scripts/paper/testdata/smoke_grid.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("-dry-run expansion diverged from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), golden)
	}
}

func TestAuditDeterminism(t *testing.T) {
	mk := func(label string, w int, fp uint64) CellResult {
		return CellResult{
			Cell:        Cell{Scenario: ScenarioSpec{Label: label}, W: 16, H: 8, K: 2, Detector: "perfect", Exchange: w},
			Fingerprint: fp,
		}
	}
	// w=1 and w=2 agree; w=0 differs and is legitimately its own group.
	ok := []CellResult{mk("a", 0, 111), mk("a", 1, 222), mk("a", 2, 222)}
	groups, err := AuditDeterminism(ok)
	if err != nil || groups != 1 {
		t.Fatalf("audit = (%d, %v), want (1, nil)", groups, err)
	}
	bad := []CellResult{mk("a", 1, 222), mk("a", 2, 333)}
	if _, err := AuditDeterminism(bad); err == nil {
		t.Fatal("divergent batched cells must fail the audit")
	}
}

func TestGridCSVRoundTrip(t *testing.T) {
	results := []CellResult{
		{
			Cell: Cell{
				Scenario: ScenarioSpec{Name: "churn", Label: "churn-fast"},
				W:        16, H: 8, K: 2, Detector: "delayed:2", Exchange: 1, Rep: 3,
				Seed: 0xdeadbeef, ScheduleSeed: 0xfeed, Rounds: 24,
			},
			FinalHomogeneity: 0.125, ReferenceH: 0.5, ShapeHeld: true,
			ReliabilityPct: 98.4375, Fingerprint: 0xabc123,
			Series: &scenario.Result{},
		},
		{
			Cell: Cell{
				Scenario: ScenarioSpec{Name: "reshape", Label: "md"},
				W:        20, H: 10, K: 4, Detector: "perfect", Rep: 1,
				Seed: 0xbeef, ScheduleSeed: 0xcafe, Rounds: 30,
			},
			FinalHomogeneity: 0.25, ReferenceH: 0.375, ShapeHeld: true,
			ReliabilityPct: 96.5, ReshapeRounds: 7, Fingerprint: 0xfeedface,
		},
	}
	// Write through the real writer, read back, compare the round trip.
	dir := t.TempDir()
	if err := WriteResults(dir, []byte("{}"), results); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dir + "/grid.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadGridCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) {
		t.Fatalf("read %d rows, want %d", len(back), len(results))
	}
	for i := range results {
		got, want := back[i], results[i]
		if got.Cell.ID() != want.Cell.ID() ||
			got.Cell.Scenario.Name != want.Cell.Scenario.Name ||
			got.Cell.Scenario.Label != want.Cell.Scenario.Label ||
			got.Cell.Seed != want.Cell.Seed ||
			got.Cell.ScheduleSeed != want.Cell.ScheduleSeed ||
			got.FinalHomogeneity != want.FinalHomogeneity ||
			got.ReferenceH != want.ReferenceH ||
			got.ShapeHeld != want.ShapeHeld ||
			got.ReliabilityPct != want.ReliabilityPct ||
			got.ReshapeRounds != want.ReshapeRounds ||
			got.Fingerprint != want.Fingerprint {
			t.Errorf("grid.csv round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
	// A reshape cell records no series, so it writes no cell CSV.
	if _, err := os.Stat(dir + "/cells/" + results[0].Cell.ID() + ".csv"); err != nil {
		t.Errorf("churn cell CSV missing: %v", err)
	}
	if _, err := os.Stat(dir + "/cells/" + results[1].Cell.ID() + ".csv"); !os.IsNotExist(err) {
		t.Errorf("reshape cell wrote a series CSV (stat err %v)", err)
	}
}

// TestWriteCellCSVBytes pins a cell CSV's exact bytes: the header row,
// then one row per round with the shortest 'g' rendering of each value,
// non-finite values and negative zero included. A series whose length is
// not the live counts' is refused.
func TestWriteCellCSVBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.csv")
	res := &scenario.Result{
		LiveNodes:   []int{128, 64, 1234567, 3},
		Homogeneity: []float64{5.25, 1e21, math.Inf(1), 1234567},
		Proximity:   []float64{-0.035, math.Copysign(0, -1), math.NaN(), 1e-7},
		DataPoints:  []float64{1, 2.5, math.Inf(-1), 0},
		MsgCost:     []float64{0.1, 1e-300, 4, 12.75},
	}
	if err := writeCellCSV(path, res); err != nil {
		t.Fatal(err)
	}
	const want = "round,live,homogeneity,proximity,datapoints_per_node,msgcost_per_node\n" +
		"0,128,5.25,-0.035,1,0.1\n" +
		"1,64,1e+21,-0,2.5,1e-300\n" +
		"2,1.234567e+06,+Inf,NaN,-Inf,4\n" +
		"3,3,1.234567e+06,1e-07,0,12.75\n"
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("writeCellCSV wrote\n%q\nwant\n%q", got, want)
	}
	res.MsgCost = res.MsgCost[:3]
	if err := writeCellCSV(path, res); err == nil {
		t.Fatal("a series one round short was written")
	}
}

func TestReadGridCSVRejects(t *testing.T) {
	if _, err := ReadGridCSV(strings.NewReader("")); err == nil {
		t.Error("empty grid.csv accepted")
	}
	if _, err := ReadGridCSV(strings.NewReader("nope\n")); err == nil {
		t.Error("wrong header accepted")
	}
	if _, err := ReadGridCSV(strings.NewReader(gridHeader + "\na,b\n")); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ReadGridCSV(strings.NewReader(gridHeader + "\n" + strings.Repeat("x,", gridFields-1) + "x\n")); err == nil {
		t.Error("non-numeric row accepted")
	}
	// A well-formed row, then the same row with a non-numeric
	// reshape_rounds.
	row := "c,reshape,reshape,16,8,2,perfect,0,0,0000000000000001,0000000000000002,24,0.1,0.5,1,90,6,00000000000000ff"
	if _, err := ReadGridCSV(strings.NewReader(gridHeader + "\n" + row + "\n")); err != nil {
		t.Fatalf("well-formed row rejected: %v", err)
	}
	bad := strings.Replace(row, ",90,6,", ",90,six,", 1)
	if _, err := ReadGridCSV(strings.NewReader(gridHeader + "\n" + bad + "\n")); err == nil {
		t.Error("non-numeric reshape_rounds accepted")
	}
	// The pre-kind 16-column header is a different format.
	old := "cell,scenario,w,h,k,detector,exchange,rep,seed,schedule_seed,rounds,final_homogeneity,reference_h,shape_held,reliability_pct,fingerprint"
	if _, err := ReadGridCSV(strings.NewReader(old + "\n")); err == nil {
		t.Error("header without kind and reshape_rounds accepted")
	}
}

// TestPaperSpecsParse parses and expands every checked-in spec, and pins
// the cell counts of the paper's Table II, Fig. 10a, Fig. 10b and churn
// sweep.
func TestPaperSpecsParse(t *testing.T) {
	paths, err := filepath.Glob("../../scripts/paper/*.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"table2.json": 75, "fig10a.json": 54, "fig10b.json": 72, "churn.json": 12}
	seen := 0
	for _, path := range paths {
		spec, _, err := ParseFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		cells := spec.Expand()
		if len(cells) == 0 {
			t.Errorf("%s expands to no cells", path)
		}
		if n, ok := want[filepath.Base(path)]; ok {
			seen++
			if len(cells) != n {
				t.Errorf("%s expands to %d cells, want %d", path, len(cells), n)
			}
		}
	}
	if seen != len(want) {
		t.Errorf("found %d of the %d paper specs", seen, len(want))
	}
}

// cellsOf parses and expands an inline spec.
func cellsOf(t *testing.T, src string) []Cell {
	t.Helper()
	return parseValid(t, src).Expand()
}

// TestReshapeCellIsMeasureReshaping pins the spec → Config mapping of a
// reshape cell: its outcome is scenario.MeasureReshaping on a hand-built
// Config (seed, grid, K, split, fail_at and budget), for every split
// function and on both engines.
func TestReshapeCellIsMeasureReshaping(t *testing.T) {
	cells := cellsOf(t, `{
		"name": "x", "seed": 5, "rounds": 30,
		"scenarios": [
			{"name": "reshape", "label": "basic", "fail_at": 8, "split": "basic"},
			{"name": "reshape", "label": "md", "fail_at": 8, "split": "md"},
			{"name": "reshape", "label": "pd", "fail_at": 8, "split": "pd"},
			{"name": "reshape", "label": "advanced", "fail_at": 8}
		],
		"sizes": [[16, 8]], "ks": [2], "exchange_parallelism": [0, 2]
	}`)
	for _, c := range cells {
		split := c.Scenario.Label
		kind, err := core.ParseSplitKind(split)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		o, err := scenario.MeasureReshaping(scenario.Config{
			Seed: c.Seed, W: 16, H: 8, Polystyrene: true, K: 2, Split: kind,
			ExchangeParallelism: c.Exchange,
		}, 8, 22)
		if err != nil {
			t.Fatal(err)
		}
		if got.ReshapeRounds != o.Rounds || got.ShapeHeld != o.Reached ||
			got.ReliabilityPct != 100*o.Reliability ||
			got.FinalHomogeneity != o.Homogeneity || got.ReferenceH != o.ReferenceH ||
			got.Fingerprint != outcomeFingerprint(o) || got.Series != nil {
			t.Errorf("%s: reshape cell %+v does not match MeasureReshaping %+v", c.ID(), got, o)
		}
		if !o.Reached {
			t.Errorf("%s: never reshaped within the budget", c.ID())
		}
	}
}

// TestChurnWindowDefaultsKeepSchedule pins the churn window: with no
// window set, a churn cell's schedule is event-for-event UniformChurn over
// the whole horizon; a window [fail_at, rejoin_at) is the same generator
// over the window's length, shifted to start at fail_at.
func TestChurnWindowDefaultsKeepSchedule(t *testing.T) {
	cells := cellsOf(t, `{
		"name": "x", "seed": 3, "rounds": 30,
		"scenarios": [
			{"name": "churn", "rate": 0.05},
			{"name": "churn", "label": "windowed", "rate": 0.05, "fail_at": 10, "rejoin_at": 22}
		],
		"sizes": [[16, 8]]
	}`)
	whole, err := BuildSchedule(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.UniformChurn(128, 30, 0.05, cells[0].ScheduleSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, want) {
		t.Fatal("default churn window changed the schedule")
	}

	windowed, err := BuildSchedule(cells[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := windowed.Validate(); err != nil {
		t.Fatal(err)
	}
	base, err := trace.UniformChurn(128, 12, 0.05, cells[1].ScheduleSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(windowed.Events) == 0 || len(windowed.Events) != len(base.Events) {
		t.Fatalf("windowed schedule has %d events, unshifted generator %d", len(windowed.Events), len(base.Events))
	}
	for i, ev := range windowed.Events {
		if ev.Round < 10 || ev.Round >= 22 {
			t.Fatalf("event %v outside the window [10, 22)", ev)
		}
		if shifted := base.Events[i]; ev.Round != shifted.Round+10 || ev.Op != shifted.Op || ev.Node != shifted.Node {
			t.Fatalf("event %d = %v, want %v shifted by 10", i, ev, shifted)
		}
	}
}

// churnCell runs one churn cell of a single-scenario spec.
func churnCell(t *testing.T, src string) CellResult {
	t.Helper()
	cells := cellsOf(t, src)
	if len(cells) != 1 {
		t.Fatalf("spec expands to %d cells, want 1", len(cells))
	}
	r, err := RunCell(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestShapeSurvivesModerateChurn: converge, then 1% churn per round with
// replacement for 30 rounds, then settle — the shape must hold
// (homogeneity below the reference) and nearly all points live. Over
// grid seeds 1–12 this cell keeps 94.5–97.5% of its points (94% at seed
// 31), so the bound is 92%.
func TestShapeSurvivesModerateChurn(t *testing.T) {
	src := `{
		"name": "x", "seed": 31, "rounds": 60,
		"scenarios": [{"name": "churn", "rate": 0.01, "fail_at": 15, "rejoin_at": 45}],
		"sizes": [[20, 10]], "ks": [6]
	}`
	sched, err := BuildSchedule(cellsOf(t, src)[0])
	if err != nil {
		t.Fatal(err)
	}
	var crashed, joined int
	for _, ev := range sched.Events {
		if ev.Op == trace.OpLeave {
			crashed++
		} else {
			joined++
		}
	}
	if crashed == 0 || joined != crashed {
		t.Fatalf("churn bookkeeping: crashed=%d joined=%d", crashed, joined)
	}
	r := churnCell(t, src)
	if !r.ShapeHeld {
		t.Fatalf("shape lost under 1%% churn: h=%v ref=%v", r.FinalHomogeneity, r.ReferenceH)
	}
	if r.ReliabilityPct < 92 {
		t.Fatalf("reliability %.2f%% under churn with K=6", r.ReliabilityPct)
	}
}

// TestChurnRateMonotoneDamage: over the same converge → churn → settle
// window, heavier churn must not leave more data points alive.
func TestChurnRateMonotoneDamage(t *testing.T) {
	spec := func(rate string) string {
		return `{"name": "x", "seed": 32, "rounds": 40,
			"scenarios": [{"name": "churn", "rate": ` + rate + `, "fail_at": 10, "rejoin_at": 30}],
			"sizes": [[20, 10]]}`
	}
	light := churnCell(t, spec("0.005"))
	heavy := churnCell(t, spec("0.05"))
	if light.ReliabilityPct < heavy.ReliabilityPct {
		t.Fatalf("reliability should not improve with churn: %.2f%% at 0.5%% vs %.2f%% at 5%%",
			light.ReliabilityPct, heavy.ReliabilityPct)
	}
}

// TestSmokeGridParallelMatchesSerial is the grid's byte-identity suite:
// Run with four concurrent cells, and again under a memory budget that
// fits one cell, folds to exactly what a serial loop of RunCell calls
// produces, over paper, windowed churn and reshape cells at exchange
// parallelism 0, 1 and 2. CI runs it in the race-enabled determinism
// steps.
func TestSmokeGridParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell grid identity run; exercised by CI's dedicated race step")
	}
	spec := parseValid(t, `{
		"name": "parallel", "seed": 7, "rounds": 24,
		"scenarios": [
			{"name": "paper", "fail_at": 8, "rejoin_at": 16},
			{"name": "churn", "rate": 0.02, "fail_at": 4, "rejoin_at": 16},
			{"name": "reshape", "fail_at": 8}
		],
		"sizes": [[16, 8]], "ks": [2], "exchange_parallelism": [0, 1, 2]
	}`)
	cells := spec.Expand()
	serial := make([]CellResult, len(cells))
	for i, c := range cells {
		r, err := RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	if groups, err := AuditDeterminism(serial); err != nil || groups != 3 {
		t.Fatalf("serial audit = (%d, %v), want (3, nil)", groups, err)
	}
	oneCell := scenario.Config{W: 16, H: 8, Polystyrene: true, K: 2}.EstimatedFootprintBytes()
	for _, opts := range []RunOpts{
		{Parallelism: 4},
		{Parallelism: 4, MemBudgetBytes: oneCell},
	} {
		parallel, err := Run(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			got, want := parallel[i], serial[i]
			if got.Fingerprint != want.Fingerprint ||
				got.FinalHomogeneity != want.FinalHomogeneity || got.ReferenceH != want.ReferenceH ||
				got.ShapeHeld != want.ShapeHeld || got.ReliabilityPct != want.ReliabilityPct ||
				got.ReshapeRounds != want.ReshapeRounds || !reflect.DeepEqual(got.Series, want.Series) {
				t.Errorf("%+v: %s diverged from the serial reference", opts, cells[i].ID())
			}
		}
	}
}

// TestSmokeGridEndToEnd runs the CI smoke spec in-process and checks the
// analyzer output against the same golden run_all.sh --smoke diffs —
// the grid pipeline's full-stack test.
func TestSmokeGridEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full smoke grid run")
	}
	spec, specData, err := ParseFile(smokeSpec)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AuditDeterminism(results); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/smoke-smoke"
	if err := WriteResults(dir, specData, results); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dir + "/tables.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../scripts/paper/testdata/smoke_tables.golden.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("smoke tables.md diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}
