package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"polystyrene/internal/experiments"
)

// gridCmd runs a declarative experiment grid: it parses an
// experiments.json (scenario × size × K × detector × exchange-parallelism
// × repeats), expands it deterministically, executes every cell on an
// engine of its own under a worker/memory budget, and writes a
// timestamped results folder (grid.csv, per-cell series, aggregate.csv,
// paper-ready tables.md). -dry-run prints the expanded grid — cell IDs
// and derived seeds — without running anything; -analyze re-derives the
// aggregate outputs from an existing results folder. The paper's Table II, Fig. 10a,
// Fig. 10b and churn sweep are specs under scripts/paper/.
//
//	poly grid -spec scripts/paper/experiments.json -out results
//	poly grid -spec scripts/paper/table2.json -out results
//	poly grid -spec scripts/paper/smoke.json -dry-run
//	poly grid -analyze results/paper-20260808-120000
type gridCmd struct {
	spec, out, stamp, analyze string
	dryRun, quiet             bool
	parallel, memBudget       int
}

func (c *gridCmd) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.spec, "spec", "", "path to experiments.json")
	fs.StringVar(&c.out, "out", "results", "results root; the run writes <out>/<name>-<stamp>/")
	fs.StringVar(&c.stamp, "stamp", "", "results-folder stamp (default: current UTC time; fix it for reproducible paths)")
	fs.BoolVar(&c.dryRun, "dry-run", false, "print the expanded grid (cells, seeds) and exit without running")
	fs.IntVar(&c.parallel, "parallel", 0, "concurrent cells (0 = GOMAXPROCS)")
	registerMemBudget(fs, &c.memBudget)
	fs.StringVar(&c.analyze, "analyze", "", "re-analyze an existing results folder and exit")
	fs.BoolVar(&c.quiet, "q", false, "suppress per-cell progress lines")
}

// runOpts is the runner budget the flags describe; per-cell progress
// lines go to stderr unless -q.
func (c *gridCmd) runOpts(stderr io.Writer) experiments.RunOpts {
	opts := experiments.RunOpts{
		Parallelism:    c.parallel,
		MemBudgetBytes: int64(c.memBudget) << 20,
	}
	if !c.quiet {
		opts.Progress = func(line string) { fmt.Fprintln(stderr, line) }
	}
	return opts
}

func (c *gridCmd) run(stdout, stderr io.Writer) error {
	if c.analyze != "" {
		if err := experiments.Analyze(c.analyze); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "re-analyzed %s (aggregate.csv, tables.md)\n", c.analyze)
		return nil
	}
	if c.spec == "" {
		return errors.New("-spec is required (or -analyze DIR)")
	}
	sp, specData, err := experiments.ParseFile(c.spec)
	if err != nil {
		return err
	}
	if c.dryRun {
		return experiments.WriteGrid(stdout, sp, sp.Expand())
	}

	results, err := experiments.Run(sp, c.runOpts(stderr))
	if err != nil {
		return err
	}
	groups, err := experiments.AuditDeterminism(results)
	if err != nil {
		return err
	}
	stamp := c.stamp
	if stamp == "" {
		stamp = time.Now().UTC().Format("20060102-150405")
	}
	dir := fmt.Sprintf("%s/%s-%s", c.out, sp.Name, stamp)
	if err := experiments.WriteResults(dir, specData, results); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d cells -> %s (determinism audit: %d identity groups ok)\n", len(results), dir, groups)
	return nil
}
