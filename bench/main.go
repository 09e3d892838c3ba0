// Command bench is the repository's benchmark: it runs one workload in
// one process, prints every metric by name with its unit, checks that the
// program's outputs are correct, and ends with the one-line JSON result
// the benchmark contract asks for. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", refSeconds, "measuring time the replay counts are sized for")
	trace := flag.Int("trace", 0, "1 performs the traced run and reports the per-layer metrics")
	spans := flag.String("spans", "", "write the traced run's spans to this file (implies -trace 1)")
	aa := flag.Int("aa", 0, "A/A mode: run every workload in two interleaved sets of N processes and compare them")
	flag.Parse()

	if *aa > 0 {
		return runAA(*aa, *seconds)
	}
	sp, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if *spans != "" {
		*trace = 1
	}

	r := newRun(sp, *seed, *seconds)
	defer r.close()
	printHeader(r)

	var out map[string]metric
	if *trace == 0 {
		if err := r.measure(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		out = r.endToEnd()
		printMetrics(out)
		printMetrics(r.diagnostics())
	} else {
		path := *spans
		if path == "" {
			path = defaultSpansPath(sp.name)
		}
		var err error
		if out, err = r.traced(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		out = perLayerResult(out)
		printMetrics(out)
	}

	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
	fmt.Printf("ops %d count\nfailed_ops %d count\n", r.ops, r.failed)
	fmt.Printf("# cpu pressure after: %s\n", cpuPressure())
	line, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.ops, Failed: r.failed, Metrics: out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if r.failed != 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// printHeader records where and on what the numbers were taken, so that
// a noisy run is recognisable after the fact.
func printHeader(r *run) {
	fmt.Printf("# workload %s seed %d replays %d\n", r.spec.name, r.seed, r.replays)
	fmt.Printf("# nproc %d GOMAXPROCS %d %s commit %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Printf("# cpu pressure before: %s\n", cpuPressure())
}

// commit is the VCS revision the binary was built from; a checkout that
// is not a repository has none.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// cpuPressure is the "some" line of /proc/pressure/cpu: the share of
// recent time in which runnable tasks waited for a CPU.
func cpuPressure() string {
	data, err := os.ReadFile("/proc/pressure/cpu")
	if err != nil {
		return "unavailable"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return line
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(m map[string]metric) {
	for _, n := range sortedKeys(m) {
		fmt.Printf("%s %.9g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// endToEnd derives the gated metrics from the ledger. Every timing but
// setup_s is a replay floor.
func (r *run) endToEnd() map[string]metric {
	l := r.led
	round, steps := l.floor("round/")
	return map[string]metric{
		"setup_s":            {median(r.setupS), "s"},
		"round_s":            {round / float64(steps), "s"},
		"scenario_s":         {r.scriptSum(l.floor), "s"},
		"snapshot_save_s":    {one(l.floor("save")), "s"},
		"snapshot_restore_s": {one(l.floor("restore")), "s"},
		"publish_s":          {one(l.floor("publish")), "s"},
		"lookup_us":          {one(l.floor("stat/lookup_us")), "us"},
		"heap_live_mb":       {r.heapLiveMB, "MB"},
	}
}

func one(v float64, _ int) float64 { return v }

// scriptKeys are the steps of the workload's script: one of each
// operation and all its rounds.
var scriptKeys = []string{"new", "restore", "round/", "publish", "save", "slice"}

func (r *run) scriptSum(reduce func(string) (float64, int)) float64 {
	sum := 0.0
	for _, k := range scriptKeys {
		sum += one(reduce(k))
	}
	return sum
}

// diagnostics are ungated numbers the untraced run has anyway: what the
// floor hides (the median sample) and the reshaping cells.
func (r *run) diagnostics() map[string]metric {
	l := r.led
	round, steps := l.med("round/")
	m := map[string]metric{
		"round_s.med":            {round / float64(steps), "s"},
		"scenario_s.med":         {r.scriptSum(l.med), "s"},
		"snapshot_save_s.med":    {one(l.med("save")), "s"},
		"snapshot_restore_s.med": {one(l.med("restore")), "s"},
		"publish_s.med":          {one(l.med("publish")), "s"},
		"lookup_us.med":          {one(l.med("stat/lookup_us")), "us"},
		"reshape_s":              {0, "s"},
		"reshape_s.med":          {0, "s"},
		"reshape_rounds":         {float64(r.cellOut.Rounds), "count"},
		"reliability":            {r.cellOut.Reliability, "ratio"},
	}
	if r.spec.cells > 0 {
		m["reshape_s"] = metric{one(l.floor("reshape")), "s"}
		m["reshape_s.med"] = metric{one(l.med("reshape")), "s"}
	}
	return m
}
