package main

import (
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestRunSmallScenario(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-w", "16", "-h", "8", "-fail-at", "8", "-reinject-at", "20", "-end", "30",
	}, &b)
	if err != nil {
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
	err := run([]string{
		"-tman", "-w", "16", "-h", "8", "-fail-at", "5", "-reinject-at", "10", "-end", "15",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "polystyrene=false") {
		t.Fatal("baseline header missing")
	}
}

func TestRunMemBudget(t *testing.T) {
	var b strings.Builder
	// A 1 MiB budget cannot hold the 80x40 default grid's engine.
	err := run([]string{"-mem-budget", "1", "-end", "5", "-fail-at", "1", "-reinject-at", "2"}, &b)
	if err == nil || !strings.Contains(err.Error(), "mem-budget") {
		t.Fatalf("over-budget run not refused: %v", err)
	}
	// A sufficient budget runs normally.
	b.Reset()
	if err := run([]string{
		"-w", "16", "-h", "8", "-mem-budget", "64",
		"-fail-at", "5", "-reinject-at", "10", "-end", "15",
	}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "final reliability") {
		t.Fatal("budgeted run did not complete")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-split", "bogus"}, &b); err == nil {
		t.Fatal("bogus split accepted")
	}
	if err := run([]string{"-fail-at", "50", "-reinject-at", "10"}, &b); err == nil {
		t.Fatal("inverted phases accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &b); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-checkpoint", "x.snap"}, &b); err == nil {
		t.Fatal("-checkpoint without -checkpoint-at accepted")
	}
	if err := run([]string{"-checkpoint-at", "5"}, &b); err == nil {
		t.Fatal("-checkpoint-at without -checkpoint accepted")
	}
}

// TestCheckpointResumeByteIdentical round-trips a run through a snapshot
// file: checkpoint mid-reshaping, resume in a second process-equivalent
// invocation, and require the resumed CSV to be byte-identical to an
// uninterrupted run's. Checkpoints in every phase are exercised,
// including the exact event rounds.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	base := []string{"-w", "16", "-h", "8", "-fail-at", "8", "-reinject-at", "20", "-end", "30"}

	var full strings.Builder
	if err := run(base, &full); err != nil {
		t.Fatal(err)
	}

	for _, at := range []string{"5", "8", "14", "20", "27"} {
		snapFile := t.TempDir() + "/state.snap"
		var ck strings.Builder
		err := run(append(append([]string{}, base...),
			"-checkpoint", snapFile, "-checkpoint-at", at), &ck)
		if err != nil {
			t.Fatalf("checkpoint at %s: %v", at, err)
		}
		if !strings.Contains(ck.String(), "checkpoint written") {
			t.Fatalf("checkpoint run at %s printed no confirmation:\n%s", at, ck.String())
		}
		if strings.Contains(ck.String(), "round,live") {
			t.Fatalf("checkpoint run at %s printed a partial CSV", at)
		}

		var resumed strings.Builder
		err = run(append(append([]string{}, base...), "-resume", snapFile), &resumed)
		if err != nil {
			t.Fatalf("resume from %s: %v", at, err)
		}
		if resumed.String() != full.String() {
			t.Fatalf("resume from checkpoint at %s is not byte-identical to the uninterrupted run", at)
		}
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	base := []string{"-w", "16", "-h", "8", "-fail-at", "8", "-reinject-at", "20", "-end", "30"}
	snapFile := t.TempDir() + "/state.snap"
	var b strings.Builder
	if err := run(append(append([]string{}, base...),
		"-checkpoint", snapFile, "-checkpoint-at", "10"), &b); err != nil {
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
		err := run(append(append([]string{}, flags...),
			"-fail-at", "8", "-reinject-at", "20", "-end", "30", "-resume", snapFile), &b)
		if err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Fatalf("resume into mismatched %s not refused: %v", name, err)
		}
	}
}

func TestRunRejectsBadCheckpointDirFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-auto-checkpoint-every", "5"}, &b); err == nil ||
		!strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("-auto-checkpoint-every without -checkpoint-dir accepted: %v", err)
	}
	if err := run([]string{"-resume-latest"}, &b); err == nil ||
		!strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("-resume-latest without -checkpoint-dir accepted: %v", err)
	}
	if err := run([]string{
		"-checkpoint-dir", t.TempDir(), "-resume-latest", "-resume", "x.snap",
	}, &b); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-resume with -resume-latest accepted: %v", err)
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
	if err := run(base, &full); err != nil {
		t.Fatal(err)
	}

	// Registering our own handler first keeps the test process alive in
	// the window before run() installs its own; both channels receive
	// the signal once run() has.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	dir := t.TempDir()
	withDir := append(append([]string{}, base...),
		"-checkpoint-dir", dir, "-auto-checkpoint-every", "5")

	var interrupted strings.Builder
	done := make(chan error, 1)
	go func() { done <- run(withDir, &interrupted) }()

	// Wait for the first generation — proof the drive loop (and the
	// signal handler before it) is up — then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ents, err := os.ReadDir(dir); err == nil {
			found := false
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), "gen-") {
					found = true
				}
			}
			if found {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no generation appeared within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
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
	if err := run(append(append([]string{}, withDir...), "-resume-latest"), &resumed); err != nil {
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
	base := []string{"-w", "16", "-h", "8", "-fail-at", "8", "-reinject-at", "20", "-end", "30"}

	var full strings.Builder
	if err := run(base, &full); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	withDir := append(append([]string{}, base...),
		"-checkpoint-dir", dir, "-auto-checkpoint-every", "10")
	var b strings.Builder
	if err := run(withDir, &b); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "gen-") && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatal("no generations written")
	}
	data, err := os.ReadFile(filepath.Join(dir, newest))
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail: keep only the first half of the newest generation.
	if err := os.WriteFile(filepath.Join(dir, newest), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed strings.Builder
	if err := run(append(append([]string{}, withDir...), "-resume-latest"), &resumed); err != nil {
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
	base := []string{"-w", "16", "-h", "8", "-fail-at", "8", "-reinject-at", "20", "-end", "30"}
	dir := t.TempDir()
	snapFile := dir + "/state.snap"
	var b strings.Builder
	if err := run(append(append([]string{}, base...),
		"-checkpoint", snapFile, "-checkpoint-at", "12"), &b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	later := dir + "/later.snap"
	err := run(append(append([]string{}, base...),
		"-resume", snapFile, "-checkpoint", later, "-checkpoint-at", "5"), &b)
	if err == nil || !strings.Contains(err.Error(), "5") || !strings.Contains(err.Error(), "12") {
		t.Fatalf("-checkpoint-at 5 on a run resumed at round 12 not refused: %v\n%s", err, b.String())
	}
	if _, statErr := os.Stat(later); !os.IsNotExist(statErr) {
		t.Fatalf("refused run wrote %s (stat: %v)", later, statErr)
	}
}
