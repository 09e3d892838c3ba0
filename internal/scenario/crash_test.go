package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"polystyrene/internal/ckpt"
	"polystyrene/internal/faultio"
	"polystyrene/internal/fd"
	"polystyrene/internal/sim"
)

// crashPhases is the compressed schedule the crash-safety tests soak:
// every phase of the paper's scenario is crossed by the checkpoint
// cadence below.
var crashPhases = Phases{FailAt: 6, ReinjectAt: 12, End: 24}

const crashEvery = 4 // checkpoint cadence: rounds 0,4,8,12,16,20

// runCheckpointedSoak drives the phased soak with auto-checkpointing
// through fs into dir, returning the round of the last save known
// durable and the error that killed the run (nil when it completed).
func runCheckpointedSoak(cfg Config, phases Phases, every int, fs ckpt.FS, dir string) (lastSaved int, err error) {
	lastSaved = -1
	mgr, err := ckpt.NewManager(ckpt.Options{
		Dir: dir, Kind: SnapshotKind, Keep: 2, FS: fs,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		return lastSaved, err
	}
	sc, err := New(cfg)
	if err != nil {
		return lastSaved, err
	}
	defer sc.Close()
	DrivePhases(sc, phases, phases.End, func(r int) bool {
		if r%every != 0 {
			return true
		}
		var g ckpt.Generation
		if g, err = mgr.Save(r, sc.SnapshotTo); err != nil {
			return false
		}
		lastSaved = g.Round
		return true
	})
	return lastSaved, err
}

// restoreLatest restores sc from the newest generation in mgr that
// verifies, returning which generation it used.
func restoreLatest(sc *Scenario, mgr *ckpt.Manager) (ckpt.Generation, error) {
	g, data, err := mgr.OpenLatestGood()
	if err != nil {
		return ckpt.Generation{}, err
	}
	if err := sc.Restore(bytes.NewReader(data)); err != nil {
		return ckpt.Generation{}, fmt.Errorf("restoring %s: %w", g.Name, err)
	}
	return g, nil
}

// TestCrashPointSweepRecovery is the tentpole property: enumerate every
// mutating filesystem op of a whole auto-checkpointed soak, crash the
// run at each one, and require that (a) OpenLatestGood recovers a
// verified generation no older than the previous durable one, and (b)
// resuming from it replays to a metric record byte-identical to the
// uninterrupted run — at exchange parallelism w ∈ {0, 2}.
func TestCrashPointSweepRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full crash-point sweep runs in its dedicated CI step")
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			cfg := Config{Seed: 31, W: 8, H: 4, Polystyrene: true, ExchangeParallelism: workers}

			base := MustNew(cfg)
			DrivePhases(base, crashPhases, crashPhases.End, nil)
			baseRes := base.Result()
			baseRel := base.Reliability()
			base.Close()

			// Probe: the same soak fault-free, counting mutating ops.
			// The simulation is deterministic, so every crashing run
			// below performs a prefix of exactly this op sequence.
			probe := faultio.New(ckpt.OS, faultio.Config{CrashAt: faultio.NoCrash, ChunkBytes: 8192})
			probeDir := t.TempDir()
			if _, err := runCheckpointedSoak(cfg, crashPhases, crashEvery, probe, probeDir); err != nil {
				t.Fatalf("fault-free soak failed: %v", err)
			}
			totalOps := probe.Ops()
			if totalOps < 20 {
				t.Fatalf("implausible op count %d", totalOps)
			}

			for at := 0; at < totalOps; at++ {
				dir := t.TempDir()
				fs := faultio.New(ckpt.OS, faultio.Config{Seed: uint64(at), CrashAt: at, ChunkBytes: 8192})
				lastSaved, err := runCheckpointedSoak(cfg, crashPhases, crashEvery, fs, dir)
				if err == nil {
					// Legitimate only when the crash landed on a
					// best-effort rotation Remove at the very end of the
					// soak — nothing after it needed the filesystem.
					if !fs.Crashed() {
						t.Fatalf("crash %d: soak completed without the crash firing", at)
					}
				} else if !errors.Is(err, faultio.ErrCrash) {
					t.Fatalf("crash %d: soak ended with %v, want simulated crash", at, err)
				}

				// Recovery: a fresh process over the same directory.
				rec, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: SnapshotKind, Keep: 2})
				if err != nil {
					t.Fatalf("crash %d: recovery manager: %v", at, err)
				}
				resumed := MustNew(cfg)
				g, err := restoreLatest(resumed, rec)
				if err != nil {
					// Only legitimate before the very first save became
					// durable: recovery is then a fresh run from round 0.
					if lastSaved >= 0 {
						resumed.Close()
						t.Fatalf("crash %d: durable save at %d but RestoreLatest failed: %v", at, lastSaved, err)
					}
				} else {
					if g.Round < lastSaved {
						t.Fatalf("crash %d: recovered round %d older than last durable save %d", at, g.Round, lastSaved)
					}
					if got := resumed.Engine.Round(); got != g.Round {
						t.Fatalf("crash %d: restored engine at round %d, generation says %d", at, got, g.Round)
					}
				}
				DrivePhases(resumed, crashPhases, crashPhases.End, nil)
				if !reflect.DeepEqual(resumed.Result(), baseRes) {
					t.Fatalf("crash %d: resumed metric record diverged from uninterrupted run", at)
				}
				if rel := resumed.Reliability(); rel != baseRel {
					t.Fatalf("crash %d: resumed reliability %v, want %v", at, rel, baseRel)
				}
				resumed.Close()
			}
		})
	}
}

// TestSoakSurvivesTransientWriteErrors pins the retry path end to end:
// a soak whose first filesystem ops fail retryably still completes, all
// checkpoints land, and the metric record matches the fault-free run.
func TestSoakSurvivesTransientWriteErrors(t *testing.T) {
	cfg := Config{Seed: 31, W: 8, H: 4, Polystyrene: true}
	base := MustNew(cfg)
	DrivePhases(base, crashPhases, crashPhases.End, nil)
	baseRes := base.Result()
	base.Close()

	fs := faultio.New(ckpt.OS, faultio.Config{CrashAt: faultio.NoCrash, TransientOps: 3, ChunkBytes: 8192})
	dir := t.TempDir()
	lastSaved, err := runCheckpointedSoak(cfg, crashPhases, crashEvery, fs, dir)
	if err != nil {
		t.Fatalf("soak under transient errors: %v", err)
	}
	if lastSaved != 20 {
		t.Fatalf("last save at round %d, want 20", lastSaved)
	}
	rec, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: SnapshotKind})
	if err != nil {
		t.Fatal(err)
	}
	resumed := MustNew(cfg)
	defer resumed.Close()
	if _, err := restoreLatest(resumed, rec); err != nil {
		t.Fatalf("RestoreLatest: %v", err)
	}
	DrivePhases(resumed, crashPhases, crashPhases.End, nil)
	if !reflect.DeepEqual(resumed.Result(), baseRes) {
		t.Fatal("record diverged after transient-error soak")
	}
}

// TestReplayFromCheckpoint is the time-travel seed: a failure at round
// 18 of a checkpointed soak reproduces from the newest retained
// generation at or before 18 — without replaying the rounds before it —
// and the replayed metric record matches the original prefix exactly.
func TestReplayFromCheckpoint(t *testing.T) {
	cfg := Config{Seed: 41, W: 8, H: 4, Polystyrene: true}
	base := MustNew(cfg)
	DrivePhases(base, crashPhases, crashPhases.End, nil)
	baseRes := base.Result()
	base.Close()

	dir := t.TempDir()
	soakFS := faultio.New(ckpt.OS, faultio.Config{CrashAt: faultio.NoCrash})
	if _, err := runCheckpointedSoak(cfg, crashPhases, crashEvery, soakFS, dir); err != nil {
		t.Fatalf("soak: %v", err)
	}

	mgr, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: SnapshotKind, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	const failRound = 18
	re, g, err := ReplayFromCheckpoint(cfg, mgr, crashPhases, failRound)
	if err != nil {
		t.Fatalf("ReplayFromCheckpoint: %v", err)
	}
	defer re.Close()
	// Keep=2 retains generations 16 and 20; 16 is the newest <= 18.
	if g.Round != 16 {
		t.Fatalf("replayed from generation %d, want 16", g.Round)
	}
	if got := re.Engine.Round(); got != failRound {
		t.Fatalf("replay stopped at round %d, want %d", got, failRound)
	}
	got := re.Result()
	if !reflect.DeepEqual(got.Homogeneity, baseRes.Homogeneity[:failRound]) ||
		!reflect.DeepEqual(got.LiveNodes, baseRes.LiveNodes[:failRound]) {
		t.Fatal("replayed metric prefix diverged from the original run")
	}
}

// TestRestoreRejectsDetectorMismatch: the failure detector is part of
// the snapshot's configuration digest; restoring across a detector
// change must fail loudly, while digest-equal detectors interchange.
func TestRestoreRejectsDetectorMismatch(t *testing.T) {
	cfg := Config{Seed: 5, W: 8, H: 4, Polystyrene: true}
	sc := MustNew(cfg)
	defer sc.Close()
	sc.Run(3)
	var buf bytes.Buffer
	if err := sc.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}

	mis := cfg
	mis.Detector = fd.NewDelayed(2)
	other := MustNew(mis)
	defer other.Close()
	err := other.Restore(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("detector mismatch accepted or unclear error: %v", err)
	}

	// Delay is part of the identity too.
	d3 := cfg
	d3.Detector = fd.NewDelayed(3)
	sc3 := MustNew(d3)
	sc3.Run(2)
	var buf3 bytes.Buffer
	if err := sc3.SnapshotTo(&buf3); err != nil {
		t.Fatal(err)
	}
	sc3.Close()
	if err := other.Restore(bytes.NewReader(buf3.Bytes())); err == nil {
		t.Fatal("Delayed(3) snapshot restored into Delayed(2) scenario")
	}

	// An explicit Perfect detector digests equal to the nil default.
	same := cfg
	same.Detector = fd.Perfect{}
	sc2 := MustNew(same)
	defer sc2.Close()
	if err := sc2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("digest-equal detector rejected: %v", err)
	}
}

// TestCloseIsIdempotent: Close on Engine and Scenario (and the facade
// System, tested in the root package) must be safe to call twice — the
// graceful-shutdown path closes once on signal and once in a defer.
func TestCloseIsIdempotent(t *testing.T) {
	sc := MustNew(Config{Seed: 1, W: 8, H: 4, Polystyrene: true, ExchangeParallelism: 2})
	sc.Run(2)
	sc.Close()
	sc.Close()
	// The scenario stays readable after Close.
	if sc.Engine.NumLive() == 0 {
		t.Fatal("engine unreadable after double Close")
	}

	eng := sim.New(3)
	eng.Close()
	eng.Close()
}

// ReplayFromCheckpoint is the time-travel debugging seed that
// TestReplayFromCheckpoint exercises: given a checkpoint directory of a
// phased soak and a failing round, it wires a fresh scenario, restores
// the newest retained generation at or before that round and replays
// forward to it — a minimal reproduction that skips every round before
// the last checkpoint. Returns the positioned scenario and the generation
// it started from; the caller owns Close.
func ReplayFromCheckpoint(cfg Config, mgr *ckpt.Manager, ph Phases, failRound int) (*Scenario, ckpt.Generation, error) {
	g, data, err := mgr.OpenLatestGoodAtMost(failRound)
	if err != nil {
		return nil, ckpt.Generation{}, err
	}
	sc, err := New(cfg)
	if err != nil {
		return nil, ckpt.Generation{}, err
	}
	if err := sc.Restore(bytes.NewReader(data)); err != nil {
		sc.Close()
		return nil, ckpt.Generation{}, fmt.Errorf("restoring %s: %w", g.Name, err)
	}
	DrivePhases(sc, ph, failRound, nil)
	return sc, g, nil
}
