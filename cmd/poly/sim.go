package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"polystyrene/internal/core"
	"polystyrene/internal/scenario"
)

// simCmd runs the paper's three-phase scenario and prints a per-round CSV
// of the four metrics of Figs. 6 and 7: homogeneity, proximity, data
// points per node and message cost per node.
//
//	poly sim -k 4                # Polystyrene, K=4, 80x40 torus
//	poly sim -tman               # plain T-Man baseline
//	poly sim -w 40 -h 20 -seed 7 # smaller grid, different seed
//
// A run persists only as generations in -checkpoint-dir (see
// internal/ckpt): at -checkpoint-at, every -auto-checkpoint-every rounds
// and on SIGINT/SIGTERM. -resume-latest finishes it from the newest
// generation that verifies, printing the uninterrupted run's CSV byte for
// byte. -watchdog-stall aborts a hung soak with a stall report.
//
//	poly sim -checkpoint-dir ckpt -checkpoint-at 50   # run to round 50, save, stop
//	poly sim -checkpoint-dir ckpt -resume-latest      # finish the same run
type simCmd struct {
	scen         scenarioFlags
	ckpt         ckptFlags
	split        string
	end          int
	exchange     int
	memBudget    int
	checkpointAt int
	stall        time.Duration
}

func (c *simCmd) flags(fs *flag.FlagSet) {
	ph := scenario.PaperPhases()
	c.scen.register(fs, ph.FailAt, ph.ReinjectAt, true)
	fs.StringVar(&c.split, "split", "advanced", "split function: basic|pd|md|advanced")
	fs.IntVar(&c.end, "end", ph.End, "total rounds")
	fs.IntVar(&c.exchange, "exchange-parallel", 0,
		"intra-round exchange workers (0 = sequential engine; results are identical for every value >= 1)")
	registerMemBudget(fs, &c.memBudget)
	fs.IntVar(&c.checkpointAt, "checkpoint-at", -1,
		"save a generation into -checkpoint-dir at the start of this round (before its phase events) and stop; -resume-latest finishes the run")
	c.ckpt.register(fs)
	fs.DurationVar(&c.stall, "watchdog-stall", 0,
		"abort with a stall report (stuck round, last checkpoint, goroutine dump) when no round completes for this long (0 = no watchdog)")
}

func (c *simCmd) run(out, stderr io.Writer) error {
	splitKind, err := core.ParseSplitKind(c.split)
	if err != nil {
		return err
	}
	cfg := c.scen.config()
	cfg.Split = splitKind
	cfg.ExchangeParallelism = c.exchange
	if c.memBudget > 0 {
		if est := cfg.EstimatedFootprintBytes(); est > int64(c.memBudget)<<20 {
			return fmt.Errorf("estimated engine footprint %d MiB exceeds -mem-budget %d MiB (shrink the grid or raise the budget)",
				(est+(1<<20)-1)>>20, c.memBudget)
		}
	}
	phases := c.scen.phases(c.end)
	if err := phases.Validate(); err != nil {
		return err
	}
	if err := c.ckpt.validate(); err != nil {
		return err
	}
	if c.checkpointAt >= 0 && c.ckpt.dir == "" {
		return errors.New("-checkpoint-at needs -checkpoint-dir DIR")
	}
	if c.checkpointAt >= c.end {
		return fmt.Errorf("-checkpoint-at needs a round in [0, %d)", c.end)
	}

	sc, err := scenario.New(cfg)
	if err != nil {
		return err
	}
	defer sc.Close()

	auto, resumed, err := c.ckpt.open(sc)
	if err != nil {
		return err
	}
	if r := sc.Engine.Round(); c.checkpointAt >= 0 && c.checkpointAt < r {
		return fmt.Errorf("-checkpoint-at %d is before round %d, where the resumed run starts", c.checkpointAt, r)
	}
	var lastCkpt atomic.Value // read by the watchdog goroutine
	lastCkpt.Store("")
	if resumed != nil {
		lastCkpt.Store(resumed.Path(c.ckpt.dir))
	}

	ctx, release := stopContext()
	defer release()

	var wd *scenario.Watchdog
	if c.stall > 0 {
		wd = scenario.NewWatchdog(c.stall, func(lastRound int) {
			scenario.StallReport(stderr, lastRound, lastCkpt.Load().(string))
			os.Exit(2)
		})
		defer wd.Stop()
	}

	// Every save and stop happens at round start, before the round's phase
	// events, so a resumed run re-enters the drive there and fires them
	// itself: that is what makes its CSV the uninterrupted run's.
	var interrupted, atCheckpoint bool
	var saveErr error
	scenario.DrivePhasesFunc(sc, phases, phases.End, func(r int) bool {
		if wd != nil {
			wd.Tick(r)
		}
		if ctx.Err() != nil {
			interrupted = true
			return false
		}
		if r == c.checkpointAt {
			atCheckpoint = true
			return false
		}
		if auto != nil {
			g, saved, err := auto.MaybeSave(r)
			if err != nil {
				saveErr = fmt.Errorf("auto-checkpoint at round %d: %w", r, err)
				return false
			}
			if saved {
				lastCkpt.Store(g.Path(c.ckpt.dir))
			}
		}
		return true
	})
	switch {
	case saveErr != nil:
		return saveErr
	case interrupted:
		fmt.Fprintf(out, "# interrupted at round %d\n", sc.Engine.Round())
		fallthrough
	case atCheckpoint:
		return saveCheckpoint(out, auto, sc.Engine.Round())
	}

	res := sc.Result()
	fmt.Fprintf(out, "# polystyrene=%v K=%d split=%s grid=%dx%d seed=%d\n",
		cfg.Polystyrene, cfg.K, splitKind, cfg.W, cfg.H, cfg.Seed)
	fmt.Fprintf(out, "# reference homogeneity (full population) H=%.4f\n",
		0.5) // H = 0.5*sqrt(A/N) = 0.5 for step-1 grids
	fmt.Fprintln(out, "round,live,homogeneity,proximity,datapoints_per_node,msgcost_per_node")
	for r := 0; r < len(res.Homogeneity); r++ {
		fmt.Fprintf(out, "%d,%d,%.4f,%.4f,%.3f,%.1f\n",
			r, res.LiveNodes[r], res.Homogeneity[r], res.Proximity[r],
			res.DataPoints[r], res.MsgCost[r])
	}
	fmt.Fprintf(out, "# final reliability: %.2f%%\n", 100*sc.Reliability())
	return nil
}
