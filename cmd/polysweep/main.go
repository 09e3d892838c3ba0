// Command polysweep reproduces Fig. 10 of the paper: reshaping time as a
// function of network size.
//
//	polysweep -mode size              # Fig. 10a — K ∈ {2,4,8}, SplitAdvanced
//	polysweep -mode split             # Fig. 10b — Basic / MD / Advanced at K=4
//	polysweep -mode size -max 3200    # laptop-scale smoke run
//
// The default sweep covers the paper's full size axis up to the 51,200-node
// 320x160 torus; grid cells fan out across all cores (tune with -parallel).
// Output is CSV: one row per (variant, size) with the mean reshaping time
// and CI95 over the requested repetitions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"polystyrene/internal/core"
	"polystyrene/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "polysweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("polysweep", flag.ContinueOnError)
	var (
		mode     = fs.String("mode", "size", "sweep mode: size (Fig. 10a) or split (Fig. 10b)")
		maxNodes = fs.Int("max", 51200, "largest network size to include (paper: 51200)")
		reps     = fs.Int("reps", 3, "repetitions per point (paper: 25)")
		seed     = fs.Uint64("seed", 1, "base random seed")
		converge = fs.Int("converge", 20, "convergence rounds before the failure")
		budget   = fs.Int("max-rounds", 80, "round budget for reshaping")
		parallel = fs.Int("parallel", 0, "total worker budget across grid cells (0 = all cores)")
		exchange = fs.Int("exchange-parallel", 0,
			"per-cell intra-round exchange worker cap (0 = sequential engines; any value >= 1 gives identical results)")
		memBudget = fs.Int("mem-budget", 0,
			"memory budget in MiB for concurrently running cells (0 = unbounded); bounds how many cells run at once by their estimated engine footprint, never which cells run")
		poolEngines = fs.Bool("pool-engines", true,
			"recycle engines across equal-size cells (identical results; saves one engine allocation per cell)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var variants map[string]func(scenario.Config) scenario.Config
	switch *mode {
	case "size":
		variants = map[string]func(scenario.Config) scenario.Config{
			"K2": func(c scenario.Config) scenario.Config { c.K = 2; return c },
			"K4": func(c scenario.Config) scenario.Config { c.K = 4; return c },
			"K8": func(c scenario.Config) scenario.Config { c.K = 8; return c },
		}
	case "split":
		variants = map[string]func(scenario.Config) scenario.Config{
			"basic":    func(c scenario.Config) scenario.Config { c.K = 4; c.Split = core.SplitBasic; return c },
			"md":       func(c scenario.Config) scenario.Config { c.K = 4; c.Split = core.SplitMD; return c },
			"pd":       func(c scenario.Config) scenario.Config { c.K = 4; c.Split = core.SplitPD; return c },
			"advanced": func(c scenario.Config) scenario.Config { c.K = 4; c.Split = core.SplitAdvanced; return c },
		}
	default:
		return fmt.Errorf("unknown mode %q (want size|split)", *mode)
	}

	sizes := scenario.PaperGridSizes(*maxNodes)
	results, err := scenario.SizeSweep(scenario.Config{Seed: *seed}, sizes, variants,
		scenario.RunOpts{
			Reps:                *reps,
			ConvergeRounds:      *converge,
			MaxRounds:           *budget,
			Parallelism:         *parallel,
			ExchangeParallelism: *exchange,
			MemBudgetBytes:      int64(*memBudget) << 20,
			PoolEngines:         *poolEngines,
		})
	if err != nil {
		return err
	}

	labels := make([]string, 0, len(results))
	for l := range results {
		labels = append(labels, l)
	}
	sort.Strings(labels)

	fmt.Fprintf(out, "# mode=%s reps=%d seed=%d\n", *mode, *reps, *seed)
	fmt.Fprintln(out, "variant,nodes,reshaping_rounds_mean,reshaping_rounds_ci95")
	for _, label := range labels {
		for _, pt := range results[label] {
			fmt.Fprintf(out, "%s,%d,%.2f,%.3f\n",
				label, pt.Nodes, pt.ReshapingTime.Mean(), pt.ReshapingTime.CI95())
		}
	}
	return nil
}
