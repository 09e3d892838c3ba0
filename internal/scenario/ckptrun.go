package scenario

import (
	"bytes"
	"fmt"

	"polystyrene/internal/ckpt"
)

// AutoCheckpointer saves a scenario into a ckpt.Manager every fixed
// number of rounds. Call MaybeSave at the START of each round, before
// that round's phase events fire: the snapshot then captures the state
// a resumed run re-enters at, which is exactly what makes the resumed
// trajectory byte-identical — the resumed loop fires the round's events
// itself, once, just like the uninterrupted loop did.
//
// Not safe for concurrent use; it runs on the round-driving goroutine.
type AutoCheckpointer struct {
	sc        *Scenario
	mgr       *ckpt.Manager
	every     int
	lastSaved int
}

// NewAutoCheckpointer checkpoints sc into mgr every `every` rounds
// (every <= 0 disables periodic saves; SaveNow still works, e.g. for a
// final checkpoint on SIGTERM).
func NewAutoCheckpointer(sc *Scenario, mgr *ckpt.Manager, every int) *AutoCheckpointer {
	return &AutoCheckpointer{sc: sc, mgr: mgr, every: every, lastSaved: -1}
}

// MaybeSave checkpoints if round is on the cadence and has not been
// saved already (a run resumed from round r re-enters the loop at r;
// MarkSaved suppresses the redundant re-save). Returns the generation
// and whether a save happened.
func (a *AutoCheckpointer) MaybeSave(round int) (ckpt.Generation, bool, error) {
	if a.every <= 0 || round%a.every != 0 || round == a.lastSaved {
		return ckpt.Generation{}, false, nil
	}
	g, err := a.SaveNow(round)
	if err != nil {
		return ckpt.Generation{}, false, err
	}
	return g, true, nil
}

// SaveNow checkpoints unconditionally at round — the final-checkpoint
// path of graceful shutdown.
func (a *AutoCheckpointer) SaveNow(round int) (ckpt.Generation, error) {
	g, err := a.mgr.Save(round, a.sc.SnapshotTo)
	if err != nil {
		return ckpt.Generation{}, err
	}
	a.lastSaved = round
	return g, nil
}

// MarkSaved records that round already has a durable generation (the
// one just restored), so MaybeSave does not rewrite it on re-entry.
func (a *AutoCheckpointer) MarkSaved(round int) { a.lastSaved = round }

// RestoreLatest restores sc from the newest generation in mgr that
// verifies cleanly, returning which generation was used. The scenario
// must be wired from a configuration digest-equal to the checkpointed
// one; see Scenario.Restore.
func RestoreLatest(sc *Scenario, mgr *ckpt.Manager) (ckpt.Generation, error) {
	g, data, err := mgr.OpenLatestGood()
	if err != nil {
		return ckpt.Generation{}, err
	}
	if err := sc.Restore(bytes.NewReader(data)); err != nil {
		return ckpt.Generation{}, fmt.Errorf("restoring %s: %w", g.Name, err)
	}
	return g, nil
}

// DrivePhases advances sc from its current round to round `to` under
// the paper's schedule, firing each phase event at the start of its
// round. Reinjection tops the population back up to the full grid, so
// the schedule is insensitive to where a checkpoint interrupted it —
// the library form of the CLI drive loop.
func DrivePhases(sc *Scenario, ph Phases, to int) {
	DrivePhasesFunc(sc, ph, to, nil)
}

// DrivePhasesFunc is DrivePhases with a per-round callback: atRound (if
// non-nil) runs at the START of each round, before that round's phase
// events fire — the checkpoint discipline (a checkpoint taken there
// replays byte-identically, because the events re-fire on resume) and
// the natural place for pacing or a shutdown check. Returning false
// stops the drive before the round runs; the scenario is left at a
// round boundary either way.
func DrivePhasesFunc(sc *Scenario, ph Phases, to int, atRound func(round int) bool) {
	if to > ph.End {
		to = ph.End
	}
	total := sc.Cfg.W * sc.Cfg.H
	for sc.Engine.Round() < to {
		r := sc.Engine.Round()
		if atRound != nil && !atRound(r) {
			return
		}
		if r == ph.FailAt {
			sc.FailRightHalf()
		}
		if r == ph.ReinjectAt {
			sc.Reinject(total - sc.Engine.NumLive())
		}
		sc.Run(1)
	}
}
