package scenario

import (
	"fmt"

	"polystyrene/internal/sim"
	"polystyrene/internal/trace"
)

// DriveSchedule advances sc from its current round to round `to` through
// a replayable availability schedule, the trace-driven counterpart of
// DrivePhases: each event fires at the START of its round — joins first
// (fresh, empty-handed nodes on the reinjection grid, like the paper's
// phase-3 arrivals), then leaves (crash-stop kills). The schedule must be
// canonical (Canonicalize has run) and sized for the configuration:
// sched.Initial == W*H. Events before the current round are skipped as
// already applied, so a drive resumed from a checkpoint taken at round
// start, or from a converged warm-start snapshot, fires the re-entry
// round's events exactly once; the skipped joins are reconciled against
// the engine's population, so a schedule/checkpoint mismatch fails loudly
// instead of replaying a different trace. atRound, when not nil, runs
// where DrivePhases runs it and stops the drive by returning false.
func DriveSchedule(sc *Scenario, sched *trace.Schedule, to int, atRound func(round int) bool) error {
	if err := sched.Validate(); err != nil {
		return err
	}
	if want := sc.Cfg.W * sc.Cfg.H; sched.Initial != want {
		return fmt.Errorf("scenario: schedule initial population %d does not match the %dx%d grid (%d nodes)",
			sched.Initial, sc.Cfg.W, sc.Cfg.H, want)
	}
	events := sched.Events
	// Fast-forward past rounds that already ran (fresh scenarios start at
	// round 0 and skip nothing; restored ones re-enter mid-schedule).
	// Checkpoints are taken at round start BEFORE events, so events of the
	// re-entry round itself are still pending and must fire here.
	idx, skippedJoins := 0, 0
	for idx < len(events) && events[idx].Round < sc.Engine.Round() {
		if events[idx].Op == trace.OpJoin {
			skippedJoins++
		}
		idx++
	}
	if got, want := sc.Engine.NumNodes(), sched.Initial+skippedJoins; got != want {
		return fmt.Errorf("scenario: engine has %d nodes at round %d but the schedule accounts for %d — resumed state does not match this schedule",
			got, sc.Engine.Round(), want)
	}
	for sc.Engine.Round() < to {
		r := sc.Engine.Round()
		if atRound != nil && !atRound(r) {
			return nil
		}
		// Joins first (canonical order groups them ahead of the round's
		// leaves, node-ascending — the engine assigns IDs in exactly that
		// order, which the canonical form validated).
		joins := 0
		for idx+joins < len(events) && events[idx+joins].Round == r && events[idx+joins].Op == trace.OpJoin {
			joins++
		}
		if joins > 0 {
			ids := sc.Reinject(joins)
			for i, id := range ids {
				if int(id) != events[idx+i].Node {
					return fmt.Errorf("scenario: round %d: engine assigned joiner id %d, schedule expected %d", r, id, events[idx+i].Node)
				}
			}
			idx += joins
		}
		for idx < len(events) && events[idx].Round == r {
			ev := events[idx]
			if ev.Op != trace.OpLeave {
				return fmt.Errorf("scenario: round %d: event %v out of canonical order", r, ev)
			}
			if !sc.Engine.Alive(sim.NodeID(ev.Node)) {
				return fmt.Errorf("scenario: round %d: schedule crashes node %d, which is not alive", r, ev.Node)
			}
			sc.Engine.Kill(sim.NodeID(ev.Node))
			idx++
		}
		sc.Run(1)
	}
	return nil
}
