package main

import (
	"flag"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// simRun runs the sim subcommand with args.
func simRun(args []string, out io.Writer) error {
	return run(append([]string{"sim"}, args...), out, io.Discard)
}

// with returns base followed by extra, never aliasing base.
func with(base []string, extra ...string) []string {
	return append(append([]string{}, base...), extra...)
}

// generations lists the checkpoint generations in dir.
func generations(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var gens []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "gen-") {
			gens = append(gens, e.Name())
		}
	}
	return gens
}

var smallScenario = []string{"-w", "16", "-h", "8", "-fail-at", "8", "-reinject-at", "20", "-end", "30"}

func TestRunSmallScenario(t *testing.T) {
	var b strings.Builder
	if err := simRun(smallScenario, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "round,live,homogeneity") {
		t.Fatal("missing CSV header")
	}
	// 30 data rows plus header and comments.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "round,") {
			rows++
		}
	}
	if rows != 30 {
		t.Fatalf("CSV rows = %d, want 30", rows)
	}
	if !strings.Contains(out, "final reliability") {
		t.Fatal("missing reliability footer")
	}
}

func TestRunTManBaseline(t *testing.T) {
	var b strings.Builder
	err := simRun([]string{
		"-tman", "-w", "16", "-h", "8", "-fail-at", "5", "-reinject-at", "10", "-end", "15",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "polystyrene=false") {
		t.Fatal("baseline header missing")
	}
}

// TestRunMemBudget pins -mem-budget as MiB in both subcommands that take
// it: sim refuses to start over budget, and grid hands the runner bytes.
func TestRunMemBudget(t *testing.T) {
	var b strings.Builder
	// A 1 MiB budget cannot hold the 80x40 default grid's engine.
	err := simRun([]string{"-mem-budget", "1", "-end", "5", "-fail-at", "1", "-reinject-at", "2"}, &b)
	if err == nil || !strings.Contains(err.Error(), "mem-budget") {
		t.Fatalf("over-budget run not refused: %v", err)
	}
	// A sufficient budget runs normally.
	b.Reset()
	if err := simRun([]string{
		"-w", "16", "-h", "8", "-mem-budget", "64",
		"-fail-at", "5", "-reinject-at", "10", "-end", "15",
	}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "final reliability") {
		t.Fatal("budgeted run did not complete")
	}

	var grid gridCmd
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	grid.flags(fs)
	if err := fs.Parse([]string{"-mem-budget", "1"}); err != nil {
		t.Fatal(err)
	}
	if got := grid.runOpts(io.Discard).MemBudgetBytes; got != 1<<20 {
		t.Fatalf("grid -mem-budget 1 gives MemBudgetBytes %d, want %d", got, 1<<20)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var b strings.Builder
	if err := simRun([]string{"-split", "bogus"}, &b); err == nil {
		t.Fatal("bogus split accepted")
	}
	if err := simRun([]string{"-fail-at", "50", "-reinject-at", "10"}, &b); err == nil {
		t.Fatal("inverted phases accepted")
	}
	if err := simRun([]string{"-definitely-not-a-flag"}, &b); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := simRun([]string{"-checkpoint-at", "5"}, &b); err == nil {
		t.Fatal("-checkpoint-at without -checkpoint-dir accepted")
	}
	if err := simRun(with(smallScenario, "-k", "-3"), &b); err == nil {
		t.Fatal("negative -k accepted")
	}
	if err := simRun(with(smallScenario, "-w", "-8"), &b); err == nil {
		t.Fatal("negative -w accepted")
	}
	if err := simRun(with(smallScenario, "-exchange-parallel", "-2"), &b); err == nil {
		t.Fatal("negative -exchange-parallel accepted")
	}
	if err := simRun(with(smallScenario, "-checkpoint-dir", t.TempDir(), "-checkpoint-at", "30"), &b); err == nil {
		t.Fatal("-checkpoint-at past -end accepted")
	}
}

// TestCheckpointResumeByteIdentical round-trips a run through the
// generation directory: checkpoint mid-reshaping, resume in a second
// process-equivalent invocation, and require the resumed CSV to be
// byte-identical to an uninterrupted run's. Checkpoints in every phase
// are exercised, including the exact event rounds, on the sequential and
// the batched engine.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, workers := range []string{"0", "2"} {
		base := with(smallScenario, "-exchange-parallel", workers)
		var full strings.Builder
		if err := simRun(base, &full); err != nil {
			t.Fatal(err)
		}

		for _, at := range []string{"5", "8", "14", "20", "27"} {
			withDir := with(base, "-checkpoint-dir", t.TempDir())
			var ck strings.Builder
			if err := simRun(with(withDir, "-checkpoint-at", at), &ck); err != nil {
				t.Fatalf("w=%s: checkpoint at %s: %v", workers, at, err)
			}
			if !strings.Contains(ck.String(), "saved at round "+at) {
				t.Fatalf("w=%s: checkpoint run at %s printed no confirmation:\n%s", workers, at, ck.String())
			}
			if strings.Contains(ck.String(), "round,live") {
				t.Fatalf("w=%s: checkpoint run at %s printed a partial CSV", workers, at)
			}

			var resumed strings.Builder
			if err := simRun(with(withDir, "-resume-latest"), &resumed); err != nil {
				t.Fatalf("w=%s: resume from %s: %v", workers, at, err)
			}
			if resumed.String() != full.String() {
				t.Fatalf("w=%s: resume from checkpoint at %s is not byte-identical to the uninterrupted run", workers, at)
			}
		}
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := simRun(with(smallScenario, "-checkpoint-dir", dir, "-checkpoint-at", "10"), &b); err != nil {
		t.Fatal(err)
	}
	// Every divergent dimension of the configuration digest must be
	// refused: replication factor, grid size and split function.
	mismatches := map[string][]string{
		"k":     {"-w", "16", "-h", "8", "-k", "7"},
		"size":  {"-w", "8", "-h", "16"},
		"split": {"-w", "16", "-h", "8", "-split", "basic"},
	}
	for name, flags := range mismatches {
		err := simRun(with(flags, "-fail-at", "8", "-reinject-at", "20", "-end", "30",
			"-checkpoint-dir", dir, "-resume-latest"), &b)
		if err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Fatalf("resume into mismatched %s not refused: %v", name, err)
		}
	}
}

func TestRunRejectsBadCheckpointDirFlags(t *testing.T) {
	var b strings.Builder
	if err := simRun([]string{"-auto-checkpoint-every", "5"}, &b); err == nil ||
		!strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("-auto-checkpoint-every without -checkpoint-dir accepted: %v", err)
	}
	if err := simRun([]string{"-resume-latest"}, &b); err == nil ||
		!strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("-resume-latest without -checkpoint-dir accepted: %v", err)
	}
	if err := simRun(with(smallScenario, "-checkpoint-dir", t.TempDir(), "-resume-latest"), &b); err == nil {
		t.Fatal("-resume-latest from an empty -checkpoint-dir accepted")
	}
}

// TestSigtermGracefulCheckpointAndResume delivers a real SIGTERM to an
// auto-checkpointing run mid-soak, requires it to save a final
// generation and exit cleanly, and requires the -resume-latest run to
// print a CSV byte-identical to the uninterrupted run's.
func TestSigtermGracefulCheckpointAndResume(t *testing.T) {
	// 600 rounds ≈ a second of wall clock — hundreds of rounds of margin
	// between the signal (sent within milliseconds of the first saved
	// generation) and natural completion.
	base := []string{"-w", "16", "-h", "8", "-fail-at", "8", "-reinject-at", "20", "-end", "600"}

	var full strings.Builder
	if err := simRun(base, &full); err != nil {
		t.Fatal(err)
	}

	guardSigterm(t)
	dir := t.TempDir()
	withDir := with(base, "-checkpoint-dir", dir, "-auto-checkpoint-every", "5")

	var interrupted strings.Builder
	done := make(chan error, 1)
	go func() { done <- simRun(withDir, &interrupted) }()

	// Wait for the first generation — proof the drive loop (and the
	// signal handler before it) is up — then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for len(generations(t, dir)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no generation appeared within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	sigterm(t)
	if err := <-done; err != nil {
		t.Fatalf("interrupted run failed: %v", err)
	}
	if !strings.Contains(interrupted.String(), "interrupted at round") {
		t.Fatalf("interrupted run ran to completion before the signal landed:\n%.200s",
			interrupted.String())
	}
	if strings.Contains(interrupted.String(), "round,live") {
		t.Fatal("interrupted run printed a partial CSV")
	}

	var resumed strings.Builder
	if err := simRun(with(withDir, "-resume-latest"), &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != full.String() {
		t.Fatal("resumed CSV is not byte-identical to the uninterrupted run")
	}
}

// TestResumeLatestSkipsCorruptNewest corrupts the newest generation on
// disk and requires -resume-latest to fall back to the previous one,
// still finishing byte-identical to the uninterrupted run.
func TestResumeLatestSkipsCorruptNewest(t *testing.T) {
	var full strings.Builder
	if err := simRun(smallScenario, &full); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	withDir := with(smallScenario, "-checkpoint-dir", dir, "-auto-checkpoint-every", "10")
	var b strings.Builder
	if err := simRun(withDir, &b); err != nil {
		t.Fatal(err)
	}

	gens := generations(t, dir)
	if len(gens) == 0 {
		t.Fatal("no generations written")
	}
	newest := filepath.Join(dir, gens[len(gens)-1])
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail: keep only the first half of the newest generation.
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed strings.Builder
	if err := simRun(with(withDir, "-resume-latest"), &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != full.String() {
		t.Fatal("resume past the corrupt generation is not byte-identical to the uninterrupted run")
	}
}

// TestResumeRejectsCheckpointBeforeResumedRound pins that a -checkpoint-at
// round the resumed run has already passed is an error naming both
// rounds, not a silently skipped save.
func TestResumeRejectsCheckpointBeforeResumedRound(t *testing.T) {
	withDir := with(smallScenario, "-checkpoint-dir", t.TempDir())
	var b strings.Builder
	if err := simRun(with(withDir, "-checkpoint-at", "12"), &b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	err := simRun(with(withDir, "-resume-latest", "-checkpoint-at", "5"), &b)
	if err == nil || !strings.Contains(err.Error(), "5") || !strings.Contains(err.Error(), "12") {
		t.Fatalf("-checkpoint-at 5 on a run resumed at round 12 not refused: %v\n%s", err, b.String())
	}
	if gens := generations(t, withDir[len(withDir)-1]); len(gens) != 1 {
		t.Fatalf("refused run changed the generations: %v", gens)
	}
}

// guardSigterm keeps a SIGTERM from killing the test process in the
// window before run installs its own handler; both channels receive the
// signal once run has.
func guardSigterm(t *testing.T) {
	t.Helper()
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	t.Cleanup(func() { signal.Stop(guard) })
}

// sigterm delivers a real SIGTERM to this process; call guardSigterm
// first.
func sigterm(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
}
