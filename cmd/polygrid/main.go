// Command polygrid runs a declarative experiment grid: it parses an
// experiments.json (scenario × size × K × detector × exchange-parallelism
// × repeats), expands it deterministically, executes every cell under a
// worker/memory budget with engine pooling, and writes a timestamped
// results folder (grid.csv, per-cell series, aggregate.csv, paper-ready
// tables.md). -dry-run prints the expanded grid — cell IDs and derived
// seeds — without running anything; -analyze re-derives the aggregate
// outputs from an existing results folder. The paper's Table II, Fig. 10a,
// Fig. 10b and churn sweep are specs under scripts/paper/.
//
//	polygrid -spec scripts/paper/experiments.json -out results
//	polygrid -spec scripts/paper/table2.json -out results
//	polygrid -spec scripts/paper/smoke.json -dry-run
//	polygrid -analyze results/paper-20260808-120000
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"polystyrene/internal/experiments"
)

func main() {
	var (
		spec      = flag.String("spec", "", "path to experiments.json")
		out       = flag.String("out", "results", "results root; the run writes <out>/<name>-<stamp>/")
		stamp     = flag.String("stamp", "", "results-folder stamp (default: current UTC time; fix it for reproducible paths)")
		dryRun    = flag.Bool("dry-run", false, "print the expanded grid (cells, seeds) and exit without running")
		parallel  = flag.Int("parallel", 0, "concurrent cells (0 = GOMAXPROCS)")
		memBudget = flag.Int64("mem-budget", 0, "memory budget in bytes bounding concurrent cells (0 = unbounded)")
		analyze   = flag.String("analyze", "", "re-analyze an existing results folder and exit")
		quiet     = flag.Bool("q", false, "suppress per-cell progress lines")
	)
	flag.Parse()

	if *analyze != "" {
		if err := experiments.Analyze(*analyze); err != nil {
			fatal(err)
		}
		fmt.Printf("re-analyzed %s (aggregate.csv, tables.md)\n", *analyze)
		return
	}
	if *spec == "" {
		fatal(fmt.Errorf("polygrid: -spec is required (or -analyze DIR)"))
	}
	sp, specData, err := experiments.ParseFile(*spec)
	if err != nil {
		fatal(err)
	}
	if *dryRun {
		if err := experiments.WriteGrid(os.Stdout, sp, sp.Expand()); err != nil {
			fatal(err)
		}
		return
	}

	opts := experiments.RunOpts{
		Parallelism:    *parallel,
		MemBudgetBytes: *memBudget,
	}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	results, err := experiments.Run(sp, opts)
	if err != nil {
		fatal(err)
	}
	groups, err := experiments.AuditDeterminism(results)
	if err != nil {
		fatal(err)
	}

	st := *stamp
	if st == "" {
		st = time.Now().UTC().Format("20060102-150405")
	}
	dir := fmt.Sprintf("%s/%s-%s", *out, sp.Name, st)
	if err := experiments.WriteResults(dir, specData, results); err != nil {
		fatal(err)
	}
	fmt.Printf("%d cells -> %s (determinism audit: %d identity groups ok)\n", len(results), dir, groups)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
