package scenario

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"polystyrene/internal/ckpt"
	"polystyrene/internal/trace"
)

// replaySchedule returns the canonical test trace: uniform churn with
// replacement on the 16x8 grid — joins and leaves nearly every round, so
// every replay path (parallel exchanges, checkpoint resume) exercises both
// event kinds repeatedly.
func replaySchedule(t *testing.T, rounds int) *trace.Schedule {
	t.Helper()
	sched, err := trace.UniformChurn(16*8, rounds, 0.05, 1234)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func replayConfig(exchange int) Config {
	return Config{
		Seed: 42, W: 16, H: 8,
		Polystyrene:         true,
		K:                   4,
		ExchangeParallelism: exchange,
	}
}

// resultFingerprint is FNV-1a over the full per-round series — the same
// digest the experiment grid uses (experiments.Fingerprint; duplicated
// here because that package imports this one).
func resultFingerprint(r *Result) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	for _, col := range [][]float64{r.Homogeneity, r.Proximity, r.DataPoints, r.MsgCost} {
		mix(uint64(len(col)))
		for _, v := range col {
			mix(math.Float64bits(v))
		}
	}
	mix(uint64(len(r.LiveNodes)))
	for _, v := range r.LiveNodes {
		mix(uint64(v))
	}
	return h
}

func runReplay(t *testing.T, cfg Config, sched *trace.Schedule, rounds int) *Result {
	t.Helper()
	sc, res, err := RunSchedule(cfg, sched, rounds)
	if err != nil {
		t.Fatal(err)
	}
	sc.Close()
	return res
}

// TestScheduleReplayParallelIdentity: one schedule, every batched
// exchange-parallelism level — byte-identical series. (Level 0, the
// legacy sequential engine, is a deliberately different deterministic
// trajectory; it is pinned by the golden test below, not compared here.)
func TestScheduleReplayParallelIdentity(t *testing.T) {
	const rounds = 30
	sched := replaySchedule(t, rounds)
	base := runReplay(t, replayConfig(1), sched, rounds)
	for _, w := range []int{2, 4} {
		got := runReplay(t, replayConfig(w), sched, rounds)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("exchange parallelism %d diverged from level 1: fp %016x vs %016x",
				w, resultFingerprint(got), resultFingerprint(base))
		}
	}
}

// TestScheduleReplayGolden pins the replay trajectories — sequential
// (w=0) and batched (w>=1) — to golden fingerprints. Catches silent
// semantic drift anywhere in the stack: engine order, schedule
// application, metrics.
func TestScheduleReplayGolden(t *testing.T) {
	const rounds = 30
	sched := replaySchedule(t, rounds)
	golden := map[int]uint64{
		0: 0x3cd4d052351114e6,
		2: 0x01981679371906bb,
	}
	for w, want := range golden {
		res := runReplay(t, replayConfig(w), sched, rounds)
		if got := resultFingerprint(res); got != want {
			t.Errorf("w=%d: replay fingerprint %#016x, want %#016x", w, got, want)
		}
	}
}

// TestScheduleReplayCheckpointResume: checkpoint mid-schedule at round
// START (before that round's events fire), restore into a fresh
// scenario, drive the same schedule to the end — byte-identical to the
// uninterrupted run. The resumed loop must re-fire the checkpoint
// round's pending events exactly once; both the in-memory snapshot and
// the on-disk ckpt.Manager path are covered.
func TestScheduleReplayCheckpointResume(t *testing.T) {
	const rounds, mid = 30, 13
	sched := replaySchedule(t, rounds)
	full := runReplay(t, replayConfig(2), sched, rounds)

	// Drive to the checkpoint boundary: stop at round `mid` before its
	// events, exactly where AutoCheckpointer.MaybeSave sits in the loop.
	sc, err := New(replayConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := DriveScheduleFunc(sc, sched, rounds, func(r int) bool { return r != mid }); err != nil {
		t.Fatal(err)
	}
	if got := sc.Engine.Round(); got != mid {
		t.Fatalf("stopped at round %d, want %d", got, mid)
	}
	var snap bytes.Buffer
	if err := sc.SnapshotTo(&snap); err != nil {
		t.Fatal(err)
	}

	// In-memory resume.
	resumed, err := New(replayConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := DriveSchedule(resumed, sched, rounds); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, resumed.Result()) {
		t.Errorf("snapshot resume diverged: fp %016x vs %016x",
			resultFingerprint(resumed.Result()), resultFingerprint(full))
	}

	// Durable resume through a checkpoint directory.
	mgr, err := ckpt.NewManager(ckpt.Options{Dir: t.TempDir(), Kind: SnapshotKind, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Save(mid, sc.SnapshotTo); err != nil {
		t.Fatal(err)
	}
	durable, err := New(replayConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	if _, err := RestoreLatest(durable, mgr); err != nil {
		t.Fatal(err)
	}
	if err := DriveSchedule(durable, sched, rounds); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, durable.Result()) {
		t.Errorf("ckpt.Manager resume diverged: fp %016x vs %016x",
			resultFingerprint(durable.Result()), resultFingerprint(full))
	}
}

// TestDriveScheduleRejects: population mismatches fail loudly, both at
// wiring (schedule sized for a different grid) and at resume (restored
// state inconsistent with the schedule's join history).
func TestDriveScheduleRejects(t *testing.T) {
	sched := replaySchedule(t, 10)
	cfg := replayConfig(0)
	cfg.W, cfg.H = 10, 10 // 100 nodes, schedule says 128
	if _, _, err := RunSchedule(cfg, sched, 10); err == nil {
		t.Fatal("size-mismatched schedule must be rejected")
	}

	// A scenario advanced under a different regime cannot resume an
	// unrelated schedule: the join ledger will not reconcile.
	sc, err := New(replayConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	sc.Engine.Kill(3) // population now 127, schedule accounts for 128
	sc.Run(5)
	if err := DriveSchedule(sc, sched, 10); err == nil {
		t.Fatal("resume into inconsistent population must be rejected")
	}
}
