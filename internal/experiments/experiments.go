// Package experiments is the declarative experiment-grid pipeline and the
// repo's one sweep harness: an experiments.json describes a grid of
// (scenario × size × K × detector × exchange-parallelism × repeats), and
// the package expands it deterministically into cells (splitmix64-derived
// per-cell seeds via scenario.CellSeed), executes every cell on an engine
// of its own, as many at once as RunOpts's worker and memory budgets
// allow, writes per-cell CSVs plus a grid summary into a results folder,
// and aggregates them into a paper-ready CSV and markdown tables. The
// paper's Table II, Fig. 10a, Fig. 10b and the sustained-churn sweep are
// checked-in specs under scripts/paper/, run through poly grid or
// scripts/paper/run_all.sh.
//
// Rejection happens up front: unknown JSON keys, malformed axes and
// invalid scenario/parameter combinations all fail at parse/validate time
// — before any cell has burned a core-hour. Expansion is a pure function
// of the spec, so `poly grid -dry-run` shows the exact blast radius of an
// experiments.json edit.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"polystyrene/internal/core"
	"polystyrene/internal/fd"
	"polystyrene/internal/scenario"
	"polystyrene/internal/trace"
	"polystyrene/internal/xrand"
)

// Spec is the declarative description of one experiment grid, the parsed
// form of experiments.json. Every axis is crossed with every other; the
// cell count is len(Scenarios) × len(Sizes) × len(Ks) × len(Detectors) ×
// len(ExchangeParallelism) × Repeats.
type Spec struct {
	// Name labels the grid; the results folder is <Name>-<stamp>.
	Name string `json:"name"`
	// Seed is the base seed every per-cell seed is derived from.
	Seed uint64 `json:"seed"`
	// Repeats is the number of repetitions per cell (default 1). Reps
	// differ by seed (and by generated schedule, for stochastic
	// scenarios); everything else in the cell is identical.
	Repeats int `json:"repeats"`
	// Rounds is the default horizon of every cell; a scenario may
	// override it.
	Rounds int `json:"rounds"`
	// Scenarios is the workload axis; see ScenarioSpec.
	Scenarios []ScenarioSpec `json:"scenarios"`
	// Sizes lists torus grids as [w, h] pairs.
	Sizes [][2]int `json:"sizes"`
	// Ks lists replication factors (default [4]).
	Ks []int `json:"ks"`
	// Detectors lists failure detectors: "perfect", "delayed:N" or
	// "probabilistic:P" (default ["perfect"]).
	Detectors []string `json:"detectors"`
	// ExchangeParallelism lists intra-round exchange worker counts
	// (default [0], the sequential engine). Cells differing only in a
	// level >= 1 are byte-identical by the engine's determinism contract
	// — the grid deliberately derives their seeds identically, so a grid
	// with this axis doubles as a continuous determinism audit.
	ExchangeParallelism []int `json:"exchange_parallelism"`
}

// ScenarioSpec names one workload of the scenario axis and its
// parameters. Name selects the generator; only the fields that scenario
// consumes may be set — any other non-zero field is an invalid
// combination and rejected up front:
//
//   - "paper": the 3-phase evaluation of Sec. IV-A. fail_at (default 20)
//     is the half-torus catastrophe, rejoin_at (default 100) the
//     reinjection.
//   - "churn": uniform random churn at `rate` per round (required),
//     every crash matched by a fresh joiner, pre-computed as a
//     replayable schedule (trace.UniformChurn). Churn runs over the
//     window [fail_at, rejoin_at) (defaults 0 and rounds, the whole
//     horizon): converge, churn, then settle until the horizon.
//   - "flash-crowd": `crowd` × N fresh nodes (default 0.5) join at
//     fail_at and all leave at rejoin_at (trace.FlashCrowd).
//   - "rolling-partition": the torus is cut into `bands` (default 4)
//     vertical bands; band b fails at fail_at + b*stride (default
//     stride 2), each band's loss rejoined `rejoin_at` rounds after it
//     fails when rejoin_at >= 0 (trace.RollingPartition; here
//     rejoin_at is a relative delay).
//   - "rack-failure": the torus width is split among `datacenters`
//     (default 4) equal contiguous slabs; the first, x < W/datacenters,
//     fails at fail_at, rejoined at rejoin_at when >= 0
//     (trace.DatacenterOutage).
//   - "weibull": heterogeneous node lifetimes drawn from
//     Weibull(shape, scale) (defaults 0.7, rounds/2), deaths replaced by
//     fresh joiners (trace.WeibullLifetimes).
//   - "trace": replays the schedule CSV at `trace` (path resolved
//     relative to the spec file). Its initial population must match
//     every size in the grid — checked up front.
//   - "reshape": the Table II / Fig. 10 measurement
//     (scenario.MeasureReshaping): converge for fail_at rounds (default
//     20), crash the right half, and count the rounds until h < H, up to
//     the horizon. `split` selects the split function (basic, md, pd or
//     advanced, the default). It records no per-round series.
type ScenarioSpec struct {
	Name string `json:"name"`
	// Label distinguishes two entries of the same Name (defaults to
	// Name; must be unique across the axis).
	Label string `json:"label,omitempty"`
	// Rounds overrides the spec-level horizon for this scenario.
	Rounds int `json:"rounds,omitempty"`

	FailAt   int     `json:"fail_at,omitempty"`
	RejoinAt int     `json:"rejoin_at,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Crowd    float64 `json:"crowd,omitempty"`
	Bands    int     `json:"bands,omitempty"`
	Stride   int     `json:"stride,omitempty"`
	DCs      int     `json:"datacenters,omitempty"`
	Shape    float64 `json:"shape,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Trace    string  `json:"trace,omitempty"`
	Split    string  `json:"split,omitempty"`

	// unset tracks which optional fields the JSON actually set, for
	// invalid-combination rejection (a zero value is indistinguishable
	// from absent otherwise). Populated by Parse.
	setFields map[string]bool
}

// scenarioFields maps each scenario name to the optional fields it
// consumes; any other set field is rejected.
var scenarioFields = map[string][]string{
	"paper":             {"fail_at", "rejoin_at"},
	"churn":             {"rate", "fail_at", "rejoin_at"},
	"flash-crowd":       {"fail_at", "rejoin_at", "crowd"},
	"rolling-partition": {"fail_at", "rejoin_at", "bands", "stride"},
	"rack-failure":      {"fail_at", "rejoin_at", "datacenters"},
	"weibull":           {"shape", "scale"},
	"trace":             {"trace"},
	"reshape":           {"fail_at", "split"},
}

// Parse decodes and validates an experiments.json. Unknown keys anywhere
// in the document are rejected (a typoed axis silently shrinking the
// grid is the failure mode this guards against). baseDir anchors
// relative trace paths (pass the spec file's directory).
func Parse(data []byte, baseDir string) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if err := checkTrailing(dec); err != nil {
		return nil, err
	}
	// Re-decode each scenario generically to learn which fields were
	// actually present (for combination checks).
	var raw struct {
		Scenarios []map[string]json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	for i := range spec.Scenarios {
		spec.Scenarios[i].setFields = make(map[string]bool)
		if i < len(raw.Scenarios) {
			for k := range raw.Scenarios[i] {
				spec.Scenarios[i].setFields[k] = true
			}
		}
	}
	spec.applyDefaults()
	if err := spec.Validate(baseDir); err != nil {
		return nil, err
	}
	return &spec, nil
}

// ParseFile is Parse over a file, anchoring relative trace paths at the
// file's directory.
func ParseFile(path string) (*Spec, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	dir := "."
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		dir = path[:i]
	}
	spec, err := Parse(data, dir)
	if err != nil {
		return nil, nil, err
	}
	return spec, data, nil
}

func checkTrailing(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("experiments: trailing data after the spec document")
	}
	return nil
}

func (s *Spec) applyDefaults() {
	if s.Repeats == 0 {
		s.Repeats = 1
	}
	if len(s.Ks) == 0 {
		s.Ks = []int{4}
	}
	if len(s.Detectors) == 0 {
		s.Detectors = []string{"perfect"}
	}
	if len(s.ExchangeParallelism) == 0 {
		s.ExchangeParallelism = []int{0}
	}
	for i := range s.Scenarios {
		sc := &s.Scenarios[i]
		if sc.Label == "" {
			sc.Label = sc.Name
		}
		if sc.Rounds == 0 {
			sc.Rounds = s.Rounds
		}
	}
}

// Validate rejects a malformed or inconsistent spec: empty axes,
// non-positive sizes/Ks/repeats, unparseable detectors, negative
// exchange levels, duplicate scenario labels, scenario parameters that
// do not belong to their scenario, event rounds outside the horizon, and
// trace files that are missing, malformed or sized for a different grid.
func (s *Spec) Validate(baseDir string) error {
	if s.Name == "" {
		return fmt.Errorf("experiments: spec needs a name")
	}
	if s.Repeats < 1 {
		return fmt.Errorf("experiments: repeats %d < 1", s.Repeats)
	}
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("experiments: no scenarios")
	}
	if len(s.Sizes) == 0 {
		return fmt.Errorf("experiments: no sizes")
	}
	for _, sz := range s.Sizes {
		if sz[0] < 2 || sz[1] < 2 {
			return fmt.Errorf("experiments: size %dx%d too small (need w,h >= 2)", sz[0], sz[1])
		}
	}
	for _, k := range s.Ks {
		if k < 1 {
			return fmt.Errorf("experiments: replication factor %d < 1", k)
		}
	}
	for _, d := range s.Detectors {
		if _, err := ParseDetector(d, 1); err != nil {
			return err
		}
	}
	for _, w := range s.ExchangeParallelism {
		if w < 0 {
			return fmt.Errorf("experiments: exchange parallelism %d < 0", w)
		}
	}
	labels := make(map[string]bool, len(s.Scenarios))
	for i := range s.Scenarios {
		sc := &s.Scenarios[i]
		if labels[sc.Label] {
			return fmt.Errorf("experiments: duplicate scenario label %q", sc.Label)
		}
		labels[sc.Label] = true
		if err := sc.validate(s, baseDir); err != nil {
			return err
		}
	}
	return nil
}

func (sc *ScenarioSpec) validate(s *Spec, baseDir string) error {
	allowed, ok := scenarioFields[sc.Name]
	if !ok {
		return fmt.Errorf("experiments: unknown scenario %q (want %s)", sc.Name, strings.Join(trace.SortedKeys(scenarioFields), "|"))
	}
	for f := range sc.setFields {
		switch f {
		case "name", "label", "rounds":
			continue
		}
		found := false
		for _, a := range allowed {
			if f == a {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("experiments: scenario %q does not take %q (allowed: %s)", sc.Label, f, strings.Join(allowed, ", "))
		}
	}
	if sc.Rounds < 1 {
		return fmt.Errorf("experiments: scenario %q has no horizon (set rounds on it or on the spec)", sc.Label)
	}
	// Per-scenario parameter defaults and range checks. Defaults are
	// resolved here so Expand sees fully concrete specs.
	switch sc.Name {
	case "paper":
		if !sc.setFields["fail_at"] {
			sc.FailAt = 20
		}
		if !sc.setFields["rejoin_at"] {
			sc.RejoinAt = 100
		}
		ph := scenario.Phases{FailAt: sc.FailAt, ReinjectAt: sc.RejoinAt, End: sc.Rounds}
		if err := ph.Validate(); err != nil {
			return fmt.Errorf("experiments: scenario %q: %w", sc.Label, err)
		}
	case "churn":
		if !sc.setFields["rate"] || sc.Rate <= 0 || sc.Rate >= 1 {
			return fmt.Errorf("experiments: scenario %q needs a churn rate in (0,1) (got %v)", sc.Label, sc.Rate)
		}
		if !sc.setFields["rejoin_at"] {
			sc.RejoinAt = sc.Rounds
		}
		if sc.FailAt < 0 || sc.RejoinAt <= sc.FailAt || sc.RejoinAt > sc.Rounds {
			return fmt.Errorf("experiments: scenario %q needs a churn window 0 <= fail_at < rejoin_at <= rounds (got %d, %d, %d)",
				sc.Label, sc.FailAt, sc.RejoinAt, sc.Rounds)
		}
	case "flash-crowd":
		if !sc.setFields["crowd"] {
			sc.Crowd = 0.5
		}
		if sc.Crowd <= 0 || sc.Crowd > 4 {
			return fmt.Errorf("experiments: scenario %q crowd fraction %v out of (0,4]", sc.Label, sc.Crowd)
		}
		if !sc.setFields["fail_at"] {
			sc.FailAt = sc.Rounds / 4
		}
		if !sc.setFields["rejoin_at"] {
			sc.RejoinAt = sc.Rounds / 2
		}
		if sc.FailAt < 0 || sc.RejoinAt < sc.FailAt || sc.RejoinAt >= sc.Rounds {
			return fmt.Errorf("experiments: scenario %q needs 0 <= fail_at <= rejoin_at < rounds (got %d, %d, %d)",
				sc.Label, sc.FailAt, sc.RejoinAt, sc.Rounds)
		}
	case "rolling-partition":
		if !sc.setFields["bands"] {
			sc.Bands = 4
		}
		if !sc.setFields["stride"] {
			sc.Stride = 2
		}
		if !sc.setFields["fail_at"] {
			sc.FailAt = sc.Rounds / 4
		}
		if !sc.setFields["rejoin_at"] {
			sc.RejoinAt = -1
		}
		if sc.Bands < 1 || sc.Stride < 0 || sc.FailAt < 0 {
			return fmt.Errorf("experiments: scenario %q needs bands >= 1, stride >= 0, fail_at >= 0", sc.Label)
		}
		last := sc.FailAt + (sc.Bands-1)*sc.Stride
		if sc.RejoinAt >= 0 {
			last += sc.RejoinAt
		}
		if last >= sc.Rounds {
			return fmt.Errorf("experiments: scenario %q: last band event at round %d is outside the %d-round horizon", sc.Label, last, sc.Rounds)
		}
	case "rack-failure":
		if !sc.setFields["datacenters"] {
			sc.DCs = 4
		}
		if !sc.setFields["fail_at"] {
			sc.FailAt = sc.Rounds / 4
		}
		if !sc.setFields["rejoin_at"] {
			sc.RejoinAt = -1
		}
		if sc.DCs < 1 {
			return fmt.Errorf("experiments: scenario %q needs positive datacenters", sc.Label)
		}
		if sc.FailAt < 0 || sc.FailAt >= sc.Rounds || (sc.RejoinAt >= 0 && (sc.RejoinAt < sc.FailAt || sc.RejoinAt >= sc.Rounds)) {
			return fmt.Errorf("experiments: scenario %q fail/rejoin rounds (%d, %d) outside the %d-round horizon", sc.Label, sc.FailAt, sc.RejoinAt, sc.Rounds)
		}
	case "weibull":
		if !sc.setFields["shape"] {
			sc.Shape = 0.7
		}
		if !sc.setFields["scale"] {
			sc.Scale = float64(sc.Rounds) / 2
		}
		if sc.Shape <= 0 || sc.Scale <= 0 {
			return fmt.Errorf("experiments: scenario %q needs positive weibull shape and scale (got %v, %v)", sc.Label, sc.Shape, sc.Scale)
		}
	case "trace":
		if sc.Trace == "" {
			return fmt.Errorf("experiments: scenario %q needs a trace path", sc.Label)
		}
		if !strings.HasPrefix(sc.Trace, "/") && baseDir != "" {
			sc.Trace = baseDir + "/" + sc.Trace
		}
		f, err := os.Open(sc.Trace)
		if err != nil {
			return fmt.Errorf("experiments: scenario %q: %w", sc.Label, err)
		}
		sched, err := trace.ReadScheduleCSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("experiments: scenario %q: %s: %w", sc.Label, sc.Trace, err)
		}
		for _, sz := range s.Sizes {
			if n := sz[0] * sz[1]; sched.Initial != n {
				return fmt.Errorf("experiments: scenario %q: trace %s has initial population %d but the grid includes size %dx%d (%d nodes)",
					sc.Label, sc.Trace, sched.Initial, sz[0], sz[1], n)
			}
		}
	case "reshape":
		if !sc.setFields["fail_at"] {
			sc.FailAt = 20
		}
		if !sc.setFields["split"] {
			sc.Split = "advanced"
		}
		if _, err := core.ParseSplitKind(sc.Split); err != nil {
			return fmt.Errorf("experiments: scenario %q: %w", sc.Label, err)
		}
		if sc.FailAt <= 0 || sc.FailAt >= sc.Rounds {
			return fmt.Errorf("experiments: scenario %q needs 0 < fail_at < rounds (got %d, %d)", sc.Label, sc.FailAt, sc.Rounds)
		}
	}
	return nil
}

// ParseDetector resolves a detector axis value. seed feeds the
// probabilistic detector's private stream (derive it from the cell seed
// so repetitions stay independent).
func ParseDetector(s string, seed uint64) (fd.Detector, error) {
	name, arg, hasArg := strings.Cut(s, ":")
	switch name {
	case "perfect":
		if hasArg {
			return nil, fmt.Errorf("experiments: detector %q takes no argument", s)
		}
		return nil, nil
	case "delayed":
		d, err := strconv.Atoi(arg)
		if err != nil || d < 1 {
			return nil, fmt.Errorf("experiments: detector %q needs delayed:N with N >= 1", s)
		}
		return fd.NewDelayed(d), nil
	case "probabilistic":
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil || !(p > 0 && p <= 1) {
			return nil, fmt.Errorf("experiments: detector %q needs probabilistic:P with P in (0,1]", s)
		}
		return fd.NewProbabilistic(p, xrand.New(seed)), nil
	}
	return nil, fmt.Errorf("experiments: unknown detector %q (want perfect|delayed:N|probabilistic:P)", s)
}

// Cell is one fully resolved grid point.
type Cell struct {
	// Index is the cell's position in expansion order (stable across
	// runs of the same spec).
	Index int
	// Scenario is the resolved workload (defaults applied).
	Scenario ScenarioSpec
	// W, H, K, Detector, Exchange, Rep are the cell's axis values.
	W, H, K  int
	Detector string
	Exchange int
	Rep      int
	// Seed is the cell's derived engine seed. It deliberately excludes
	// the Exchange axis: cells differing only in exchange parallelism
	// >= 1 must produce byte-identical results (the engine's determinism
	// contract), so a grid with that axis continuously audits it.
	Seed uint64
	// ScheduleSeed drives the cell's schedule generator; it excludes K,
	// detector and exchange so all protocol variants of one (size, rep)
	// face the exact same availability trace.
	ScheduleSeed uint64
	// Rounds is the cell's horizon.
	Rounds int
}

// ID returns the cell's stable identifier, used as its results filename.
func (c Cell) ID() string {
	det := strings.NewReplacer(":", "", ".", "p").Replace(c.Detector)
	return fmt.Sprintf("%s_%dx%d_k%d_%s_w%d_r%d", c.Scenario.Label, c.W, c.H, c.K, det, c.Exchange, c.Rep)
}

// Expand produces the cell list in canonical order (scenario, size, K,
// detector, exchange, rep — the rightmost axis fastest). It is a pure
// function of the spec: same spec, same cells, same seeds.
func (s *Spec) Expand() []Cell {
	cells := make([]Cell, 0,
		len(s.Scenarios)*len(s.Sizes)*len(s.Ks)*len(s.Detectors)*len(s.ExchangeParallelism)*s.Repeats)
	for _, scn := range s.Scenarios {
		for _, sz := range s.Sizes {
			for _, k := range s.Ks {
				for _, det := range s.Detectors {
					for _, w := range s.ExchangeParallelism {
						for rep := 0; rep < s.Repeats; rep++ {
							cells = append(cells, Cell{
								Index:    len(cells),
								Scenario: scn,
								W:        sz[0], H: sz[1], K: k,
								Detector: det,
								Exchange: w,
								Rep:      rep,
								Seed: scenario.CellSeed(s.Seed, scn.Label+"/"+det,
									uint64(sz[0]), uint64(sz[1]), uint64(k), uint64(rep)),
								ScheduleSeed: scenario.CellSeed(s.Seed, "schedule/"+scn.Label,
									uint64(sz[0]), uint64(sz[1]), uint64(rep)),
								Rounds: scn.Rounds,
							})
						}
					}
				}
			}
		}
	}
	return cells
}

// WriteGrid renders the expanded grid as a deterministic plain-text
// table — the -dry-run output, golden-tested so experiments.json edits
// show their blast radius in review.
func WriteGrid(w io.Writer, spec *Spec, cells []Cell) error {
	if _, err := fmt.Fprintf(w, "# %s: %d cells (%d scenarios x %d sizes x %d ks x %d detectors x %d exchange levels x %d reps)\n",
		spec.Name, len(cells), len(spec.Scenarios), len(spec.Sizes), len(spec.Ks),
		len(spec.Detectors), len(spec.ExchangeParallelism), spec.Repeats); err != nil {
		return err
	}
	for _, c := range cells {
		if _, err := fmt.Fprintf(w, "%4d  %-44s rounds=%-4d seed=%016x schedule=%016x\n",
			c.Index, c.ID(), c.Rounds, c.Seed, c.ScheduleSeed); err != nil {
			return err
		}
	}
	return nil
}
