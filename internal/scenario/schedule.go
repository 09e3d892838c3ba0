package scenario

import (
	"fmt"

	"polystyrene/internal/sim"
	"polystyrene/internal/trace"
)

// This file drives replayable availability schedules (trace.Schedule)
// through the deterministic engine: the trace-driven counterpart of the
// paper's scripted phases (DrivePhases). Both follow the same round-START
// event discipline, so schedules compose with auto-checkpointing (a
// checkpoint taken at round start re-fires that round's pending events
// exactly once on resume), with warm starts (a schedule whose events
// begin after the converge horizon replays on top of a restored
// converged snapshot — DriveSchedule fast-forwards past already-applied
// rounds), and with phases (drive a phase window, then a schedule window,
// or express the phases themselves as a schedule via the generators).

// RunSchedule wires cfg, replays the schedule for `rounds` rounds and
// returns the scenario in its final state together with its per-round
// metric record. The schedule must be canonical (Canonicalize has run)
// and sized for the configuration: sched.Initial == W*H. Events beyond
// `rounds` simply never fire. The caller owns sc.Close.
func RunSchedule(cfg Config, sched *trace.Schedule, rounds int) (*Scenario, *Result, error) {
	sc, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := DriveSchedule(sc, sched, rounds); err != nil {
		sc.Close()
		return nil, nil, err
	}
	return sc, sc.Result(), nil
}

// DriveSchedule advances sc from its current round to round `to`, firing
// each schedule event at the START of its round — joins first (fresh,
// empty-handed nodes on the reinjection grid, exactly like the paper's
// phase-3 arrivals), then leaves (crash-stop kills). Resuming is
// implicit: events before the scenario's current round are skipped as
// already applied (their effect travels in the checkpoint), and the
// skipped joins are reconciled against the engine's population so a
// schedule/checkpoint mismatch fails loudly instead of replaying a
// different trace.
func DriveSchedule(sc *Scenario, sched *trace.Schedule, to int) error {
	return DriveScheduleFunc(sc, sched, to, nil)
}

// DriveScheduleFunc is DriveSchedule with a per-round callback: atRound
// (if non-nil) runs at the start of each round, before that round's
// events fire — the checkpoint discipline (AutoCheckpointer.MaybeSave
// belongs there) and the natural place for pacing or a shutdown check.
// Returning false stops the drive before the round runs; the scenario is
// left at a round boundary either way.
func DriveScheduleFunc(sc *Scenario, sched *trace.Schedule, to int, atRound func(round int) bool) error {
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
