// Command polysim runs the paper's three-phase evaluation scenario
// (converge / catastrophic half-torus failure / reinjection) and prints a
// per-round CSV of the four metrics of Figs. 6 and 7: homogeneity,
// proximity, data points per node and message cost per node.
//
// Reproduce Fig. 6/7 curves:
//
//	polysim -k 4                # Polystyrene, K=4, 80x40 torus
//	polysim -tman               # plain T-Man baseline
//	polysim -w 40 -h 20 -seed 7 # smaller grid, different seed
//
// Long runs can be checkpointed and resumed bit-exactly: the resumed
// run's CSV is byte-identical to the uninterrupted one.
//
//	polysim -checkpoint state.snap -checkpoint-at 50   # run to round 50, save, stop
//	polysim -resume state.snap                         # finish the same run
//
// For crash-safe soaks, -checkpoint-dir holds rotated generations
// written atomically (temp file → fsync → rename → dir fsync), each
// independently checksummed. -auto-checkpoint-every N saves on a round
// cadence and -checkpoint-keep M bounds retention; SIGINT/SIGTERM save
// a final generation, close cleanly and exit; -resume-latest recovers
// from the newest generation that verifies, silently skipping a torn or
// corrupt one. -watchdog-stall D aborts a hung soak with a stall report
// (stuck round, last durable checkpoint, full goroutine dump):
//
//	polysim -checkpoint-dir ckpt -auto-checkpoint-every 25 -watchdog-stall 5m
//	polysim -checkpoint-dir ckpt -resume-latest        # finish after a crash
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"polystyrene/internal/ckpt"
	"polystyrene/internal/core"
	"polystyrene/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "polysim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("polysim", flag.ContinueOnError)
	var (
		w          = fs.Int("w", 80, "torus grid width")
		h          = fs.Int("h", 40, "torus grid height")
		k          = fs.Int("k", 4, "replication factor K")
		seed       = fs.Uint64("seed", 1, "random seed")
		tmanOnly   = fs.Bool("tman", false, "run the plain T-Man baseline instead of Polystyrene")
		split      = fs.String("split", "advanced", "split function: basic|pd|md|advanced")
		failAt     = fs.Int("fail-at", 20, "round of the catastrophic failure")
		reinjectAt = fs.Int("reinject-at", 100, "round of the reinjection")
		end        = fs.Int("end", 200, "total rounds")
		exchange   = fs.Int("exchange-parallel", 0,
			"intra-round exchange workers (0 = sequential engine; results are identical for every value >= 1)")
		memBudget = fs.Int("mem-budget", 0,
			"memory budget in MiB (0 = unbounded); refuses to start when the configuration's estimated engine footprint exceeds it")
		checkpointFile = fs.String("checkpoint", "",
			"write a checksummed snapshot to this file at -checkpoint-at and stop without printing the CSV")
		checkpointAt = fs.Int("checkpoint-at", -1,
			"round at which -checkpoint saves (before that round's phase events)")
		resumeFile = fs.String("resume", "",
			"resume from a snapshot written by -checkpoint; all other flags must rebuild the same configuration, and the CSV printed is byte-identical to the uninterrupted run's")
		checkpointDir = fs.String("checkpoint-dir", "",
			"directory of rotated, atomically written checkpoint generations (with -auto-checkpoint-every / -resume-latest); SIGINT/SIGTERM save a final generation here before exiting")
		autoEvery = fs.Int("auto-checkpoint-every", 0,
			"save a generation into -checkpoint-dir every N rounds (0 = only the final signal-triggered save)")
		keep = fs.Int("checkpoint-keep", 3,
			"how many generations -checkpoint-dir retains")
		resumeLatest = fs.Bool("resume-latest", false,
			"resume from the newest generation in -checkpoint-dir that verifies (torn or corrupt generations are skipped); the finished CSV is byte-identical to the uninterrupted run's")
		stall = fs.Duration("watchdog-stall", 0,
			"abort with a stall report (stuck round, last checkpoint, goroutine dump) when no round completes for this long (0 = no watchdog)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	splitKind, err := core.ParseSplitKind(*split)
	if err != nil {
		return err
	}
	cfg := scenario.Config{
		Seed:                *seed,
		W:                   *w,
		H:                   *h,
		Polystyrene:         !*tmanOnly,
		K:                   *k,
		Split:               splitKind,
		ExchangeParallelism: *exchange,
	}
	if *memBudget > 0 {
		if est := cfg.EstimatedFootprintBytes(); est > int64(*memBudget)<<20 {
			return fmt.Errorf("estimated engine footprint %d MiB exceeds -mem-budget %d MiB (shrink the grid or raise the budget)",
				(est+(1<<20)-1)>>20, *memBudget)
		}
	}
	phases := scenario.Phases{FailAt: *failAt, ReinjectAt: *reinjectAt, End: *end}
	if err := phases.Validate(); err != nil {
		return err
	}
	if *checkpointFile != "" && (*checkpointAt < 0 || *checkpointAt >= *end) {
		return fmt.Errorf("-checkpoint needs -checkpoint-at in [0, %d)", *end)
	}
	if *checkpointFile == "" && *checkpointAt >= 0 {
		return fmt.Errorf("-checkpoint-at needs -checkpoint FILE")
	}
	if (*autoEvery > 0 || *resumeLatest) && *checkpointDir == "" {
		return fmt.Errorf("-auto-checkpoint-every and -resume-latest need -checkpoint-dir DIR")
	}
	if *resumeLatest && *resumeFile != "" {
		return fmt.Errorf("-resume and -resume-latest are mutually exclusive")
	}

	sc, err := scenario.New(cfg)
	if err != nil {
		return err
	}
	defer sc.Close()

	if *resumeFile != "" {
		f, err := os.Open(*resumeFile)
		if err != nil {
			return err
		}
		err = sc.Restore(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("resume %s: %w", *resumeFile, err)
		}
	}

	// lastCkpt is read by the watchdog goroutine, so it is atomic.
	var lastCkpt atomic.Value
	lastCkpt.Store("")
	var auto *scenario.AutoCheckpointer
	if *checkpointDir != "" {
		mgr, err := ckpt.NewManager(ckpt.Options{
			Dir: *checkpointDir, Kind: scenario.SnapshotKind, Keep: *keep,
		})
		if err != nil {
			return err
		}
		auto = scenario.NewAutoCheckpointer(sc, mgr, *autoEvery)
		if *resumeLatest {
			g, err := scenario.RestoreLatest(sc, mgr)
			if err != nil {
				return fmt.Errorf("resume-latest from %s: %w", *checkpointDir, err)
			}
			auto.MarkSaved(g.Round)
			lastCkpt.Store(g.Path(*checkpointDir))
		}
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	var wd *scenario.Watchdog
	if *stall > 0 {
		wd = scenario.NewWatchdog(*stall, func(lastRound int) {
			scenario.StallReport(os.Stderr, lastRound, lastCkpt.Load().(string))
			os.Exit(2)
		})
		defer wd.Stop()
	}

	stopAt := -1
	if *checkpointFile != "" {
		stopAt = *checkpointAt
		if r := sc.Engine.Round(); stopAt < r {
			return fmt.Errorf("-checkpoint-at %d is before round %d, where the resumed run starts", stopAt, r)
		}
	}
	// Checkpoints — the auto cadence, the -checkpoint-at stop and the
	// interrupt check — all happen at round start BEFORE that round's
	// phase events, so a resumed run re-enters the drive at the same
	// point and fires them itself. This one callback serves fresh,
	// checkpointing, interrupted and resumed runs alike, which is what
	// makes a resumed CSV byte-identical to an uninterrupted one.
	var stopped, interrupted bool
	var saveErr error
	scenario.DrivePhasesFunc(sc, phases, phases.End, func(r int) bool {
		if wd != nil {
			wd.Tick(r)
		}
		select {
		case <-sigc:
			interrupted = true
			return false
		default:
		}
		if r == stopAt {
			stopped = true
			return false
		}
		if auto != nil {
			g, saved, err := auto.MaybeSave(r)
			if err != nil {
				saveErr = fmt.Errorf("auto-checkpoint at round %d: %w", r, err)
				return false
			}
			if saved {
				lastCkpt.Store(g.Path(*checkpointDir))
			}
		}
		return true
	})
	switch {
	case saveErr != nil:
		return saveErr
	case stopped:
		var buf bytes.Buffer
		if err := sc.SnapshotTo(&buf); err != nil {
			return fmt.Errorf("checkpoint %s: %w", *checkpointFile, err)
		}
		if err := ckpt.WriteFileAtomic(nil, *checkpointFile, buf.Bytes()); err != nil {
			return err
		}
		fmt.Fprintf(out, "# checkpoint written to %s at round %d; finish with -resume %s\n",
			*checkpointFile, sc.Engine.Round(), *checkpointFile)
		return nil
	case interrupted:
		r := sc.Engine.Round()
		if auto == nil {
			fmt.Fprintf(out, "# interrupted at round %d; no -checkpoint-dir, nothing saved\n", r)
			return nil
		}
		g, err := auto.SaveNow(r)
		if err != nil {
			return fmt.Errorf("final checkpoint at round %d: %w", r, err)
		}
		fmt.Fprintf(out, "# interrupted at round %d; checkpoint %s saved; finish with -resume-latest\n",
			r, g.Name)
		return nil
	}

	res := sc.Result()
	fmt.Fprintf(out, "# polystyrene=%v K=%d split=%s grid=%dx%d seed=%d\n",
		cfg.Polystyrene, cfg.K, splitKind, *w, *h, *seed)
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
