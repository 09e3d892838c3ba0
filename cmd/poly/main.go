// Command poly drives the paper's evaluation scenario — converge, crash
// the right half of the torus, reinject (Sec. IV-A) — through the sim,
// grid, serve and viz subcommands, which share one set of scenario flags
// and one checkpoint path. `poly` alone lists them; `poly <command>
// -help` lists a subcommand's flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"polystyrene/internal/ckpt"
	"polystyrene/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "poly:", err)
		os.Exit(1)
	}
}

// command is one subcommand: flags registers its flags, and run executes
// it once they are parsed.
type command interface {
	flags(fs *flag.FlagSet)
	run(stdout, stderr io.Writer) error
}

type commandInfo struct {
	name, summary string
	new           func() command
}

var commands = []commandInfo{
	{"sim", "run the three-phase scenario and print its per-round metrics CSV", func() command { return new(simCmd) }},
	{"grid", "run, dry-run or re-analyze a declarative experiment grid", func() command { return new(gridCmd) }},
	{"serve", "serve a live overlay over HTTP (or -selftest it under load)", func() command { return new(serveCmd) }},
	{"viz", "render overlay snapshots at chosen rounds as SVG and ASCII maps", func() command { return new(vizCmd) }},
}

// run dispatches args[0] to its subcommand.
func run(args []string, stdout, stderr io.Writer) error {
	i := slices.IndexFunc(commands, func(c commandInfo) bool { return len(args) > 0 && c.name == args[0] })
	if i < 0 {
		fmt.Fprintln(stderr, "usage: poly <command> [flags]\n\ncommands:")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-6s %s\n", c.name, c.summary)
		}
		fmt.Fprintln(stderr, "\nRun 'poly <command> -help' for its flags.")
		if len(args) == 0 {
			return errors.New("missing command")
		}
		return fmt.Errorf("unknown command %q", args[0])
	}
	cmd := commands[i].new()
	fs := flag.NewFlagSet("poly "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	cmd.flags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := cmd.run(stdout, stderr); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	return nil
}

// scenarioFlags are the torus-scenario flags sim, serve and viz share.
type scenarioFlags struct {
	w, h, k            int
	seed               uint64
	tman               bool
	failAt, reinjectAt int
}

// register adds -w -h -k -seed -fail-at -reinject-at to fs with the
// subcommand's phase defaults, and -tman when withTMan is set.
func (s *scenarioFlags) register(fs *flag.FlagSet, failAt, reinjectAt int, withTMan bool) {
	fs.IntVar(&s.w, "w", 80, "torus grid width")
	fs.IntVar(&s.h, "h", 40, "torus grid height")
	fs.IntVar(&s.k, "k", 4, "replication factor K")
	fs.Uint64Var(&s.seed, "seed", 1, "random seed")
	fs.IntVar(&s.failAt, "fail-at", failAt, "round of the catastrophic right-half failure (serve: -1 = never)")
	fs.IntVar(&s.reinjectAt, "reinject-at", reinjectAt, "round at which the crashed capacity is reinjected (serve: -1 = never)")
	if withTMan {
		fs.BoolVar(&s.tman, "tman", false, "run the plain T-Man baseline instead of Polystyrene")
	}
}

func (s *scenarioFlags) config() scenario.Config {
	return scenario.Config{Seed: s.seed, W: s.w, H: s.h, Polystyrene: !s.tman, K: s.k}
}

func (s *scenarioFlags) phases(end int) scenario.Phases {
	return scenario.Phases{FailAt: s.failAt, ReinjectAt: s.reinjectAt, End: end}
}

// registerMemBudget adds -mem-budget, in MiB, to fs.
func registerMemBudget(fs *flag.FlagSet, mib *int) {
	fs.IntVar(mib, "mem-budget", 0,
		"memory budget in MiB (0 = unbounded): sim refuses to start when its estimated engine footprint exceeds it, grid bounds its concurrent cells by it")
}

// ckptFlags are the checkpoint-generation flags sim and serve share.
type ckptFlags struct {
	dir          string
	every, keep  int
	resumeLatest bool
}

func (c *ckptFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.dir, "checkpoint-dir", "",
		"directory of rotated, atomically written checkpoint generations; SIGINT/SIGTERM save a final generation here before exiting")
	fs.IntVar(&c.every, "auto-checkpoint-every", 0,
		"save a generation into -checkpoint-dir every N rounds (0 = only the final signal-triggered save)")
	fs.IntVar(&c.keep, "checkpoint-keep", 3, "how many generations -checkpoint-dir retains")
	fs.BoolVar(&c.resumeLatest, "resume-latest", false,
		"resume from the newest generation in -checkpoint-dir that verifies (torn or corrupt generations are skipped); all other flags must rebuild the same configuration")
}

func (c *ckptFlags) validate() error {
	if (c.every > 0 || c.resumeLatest) && c.dir == "" {
		return errors.New("-auto-checkpoint-every and -resume-latest need -checkpoint-dir DIR")
	}
	return nil
}

// open attaches an auto-checkpointer for -checkpoint-dir to sc and, under
// -resume-latest, restores sc from the newest good generation, which it
// returns. Without -checkpoint-dir both results are nil.
func (c *ckptFlags) open(sc *scenario.Scenario) (*scenario.AutoCheckpointer, *ckpt.Generation, error) {
	if c.dir == "" {
		return nil, nil, nil
	}
	mgr, err := ckpt.NewManager(ckpt.Options{Dir: c.dir, Kind: scenario.SnapshotKind, Keep: c.keep})
	if err != nil {
		return nil, nil, err
	}
	auto := scenario.NewAutoCheckpointer(sc, mgr, c.every)
	if !c.resumeLatest {
		return auto, nil, nil
	}
	g, err := scenario.RestoreLatest(sc, mgr)
	if err != nil {
		return nil, nil, fmt.Errorf("resume-latest from %s: %w", c.dir, err)
	}
	auto.MarkSaved(g.Round)
	return auto, &g, nil
}

// saveCheckpoint saves the generation a stopping run resumes from.
func saveCheckpoint(out io.Writer, auto *scenario.AutoCheckpointer, round int) error {
	if auto == nil {
		fmt.Fprintln(out, "# no -checkpoint-dir, nothing saved")
		return nil
	}
	g, err := auto.SaveNow(round)
	if err != nil {
		return fmt.Errorf("checkpoint at round %d: %w", round, err)
	}
	fmt.Fprintf(out, "# checkpoint %s saved at round %d; finish with -resume-latest\n", g.Name, round)
	return nil
}

// stopContext is cancelled by SIGINT or SIGTERM; release stops the
// routing.
func stopContext() (ctx context.Context, release context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
