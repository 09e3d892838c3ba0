package trace

import (
	"fmt"
	"math"
	"sort"

	"polystyrene/internal/xrand"
)

// This file holds the position-free adversarial schedule generators —
// availability scripts that depend only on population size and time.
// Position- and infrastructure-correlated scripts (rolling partitions,
// rack and datacenter outages) live in internal/failures, which owns the
// domain models they draw on; all of them emit the same Schedule type and
// replay through the same engine path.

// FlashCrowd scripts the classic flash-crowd profile: `joiners` fresh
// nodes all arrive at joinRound and all depart again at leaveRound — a
// transient population spike of the kind real availability traces show
// around events. joinRound <= leaveRound; equal rounds model a crowd that
// bounces off immediately (join and leave fire the same round, joins
// first).
func FlashCrowd(initial, joinRound, joiners, leaveRound int) (*Schedule, error) {
	if initial < 0 || joiners < 0 {
		return nil, fmt.Errorf("trace: flash crowd needs non-negative populations (initial %d, joiners %d)", initial, joiners)
	}
	if joinRound < 0 || leaveRound < joinRound {
		return nil, fmt.Errorf("trace: flash crowd needs 0 <= joinRound <= leaveRound (got %d, %d)", joinRound, leaveRound)
	}
	s := &Schedule{Initial: initial, Events: make([]Event, 0, 2*joiners)}
	for i := 0; i < joiners; i++ {
		s.Events = append(s.Events,
			Event{Round: joinRound, Op: OpJoin, Node: initial + i},
			Event{Round: leaveRound, Op: OpLeave, Node: initial + i})
	}
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// UniformChurn pre-computes the uniform random churn regime as a
// replayable schedule: every round for `rounds` rounds, a `rate` fraction
// of the then-alive population crashes, each crash matched by a fresh
// joiner when replace is set. Victims are drawn from the generator's own
// stream, never the engine's, so the entire script is fixed up front by
// `seed` — the same churn replays bit-exactly through checkpoints, engine
// pools and every exchange-parallelism level, and can be written to CSV
// and shared. The experiment grid's "churn" scenario shifts it to start
// at its window's first round.
func UniformChurn(initial, rounds int, rate float64, replace bool, seed uint64) (*Schedule, error) {
	if initial < 0 || rounds < 0 {
		return nil, fmt.Errorf("trace: uniform churn needs non-negative initial/rounds (got %d, %d)", initial, rounds)
	}
	if rate < 0 || rate >= 1 || math.IsNaN(rate) {
		return nil, fmt.Errorf("trace: churn rate %v out of [0,1)", rate)
	}
	rng := xrand.New(seed)
	alive := make([]int, initial)
	for i := range alive {
		alive[i] = i
	}
	next := initial
	s := &Schedule{Initial: initial}
	for r := 0; r < rounds; r++ {
		kills := int(rate * float64(len(alive)))
		if kills == 0 {
			continue
		}
		idxs := rng.Sample(len(alive), kills)
		// Remove highest index first so earlier indices stay valid under
		// swap-remove; the event order is canonicalized at the end anyway.
		sort.Sort(sort.Reverse(sort.IntSlice(idxs)))
		for _, i := range idxs {
			s.Events = append(s.Events, Event{Round: r, Op: OpLeave, Node: alive[i]})
			alive[i] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		}
		if replace {
			for i := 0; i < kills; i++ {
				s.Events = append(s.Events, Event{Round: r, Op: OpJoin, Node: next})
				alive = append(alive, next)
				next++
			}
		}
	}
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// WeibullLifetimes scripts heterogeneous node lifetimes: every node —
// initial and, when replace is set, each replacement — draws a lifetime
// from a Weibull(shape, scale) distribution (shape < 1 is the heavy-tailed
// "most nodes die young, a few live very long" regime measured in P2P
// availability studies; shape = 1 is exponential) and leaves that many
// rounds after it arrives. Deaths before `horizon` are scheduled; with
// replace, a fresh node joins the same round a death fires and draws its
// own lifetime from there. The whole script is fixed by `seed`.
func WeibullLifetimes(initial, horizon int, shape, scale float64, replace bool, seed uint64) (*Schedule, error) {
	if initial < 0 || horizon < 0 {
		return nil, fmt.Errorf("trace: weibull lifetimes need non-negative initial/horizon (got %d, %d)", initial, horizon)
	}
	if !(shape > 0) || !(scale > 0) || math.IsInf(shape, 0) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("trace: weibull needs positive finite shape and scale (got %v, %v)", shape, scale)
	}
	rng := xrand.New(seed)
	// deathRound inverts the Weibull CDF: L = scale * (-ln(1-U))^(1/shape),
	// and the node dies ceil-ish L rounds after arriving (minimum 1 full
	// round of life, so a join and its death never collide in round 0 of
	// its life in a way the schedule semantics cannot express).
	deathRound := func(bornAt int) int {
		u := rng.Float64()
		l := scale * math.Pow(-math.Log1p(-u), 1/shape)
		if l < 1 {
			l = 1
		}
		if l > float64(horizon) {
			return horizon // clamped: effectively immortal within the script
		}
		return bornAt + int(l)
	}
	// deaths[r] lists nodes dying at round r, in arrival order.
	deaths := make(map[int][]int, initial)
	for i := 0; i < initial; i++ {
		if d := deathRound(0); d < horizon {
			deaths[d] = append(deaths[d], i)
		}
	}
	s := &Schedule{Initial: initial}
	next := initial
	for r := 0; r < horizon; r++ {
		dying := deaths[r]
		for _, node := range dying {
			s.Events = append(s.Events, Event{Round: r, Op: OpLeave, Node: node})
		}
		if replace {
			// Replacements join the round their predecessor dies and draw
			// their own lifetime; draws happen here, in round order then
			// arrival order, so the stream consumption is deterministic.
			for range dying {
				s.Events = append(s.Events, Event{Round: r, Op: OpJoin, Node: next})
				if d := deathRound(r); d < horizon {
					deaths[d] = append(deaths[d], next)
				}
				next++
			}
		}
	}
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return s, nil
}
