package trace

import (
	"fmt"
	"math"
	"sort"

	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// This file holds the adversarial schedule generators. Flash crowds,
// uniform churn and Weibull lifetimes depend only on population size and
// time; rolling partitions and datacenter outages crash contiguous slabs
// of the shape, the correlated outages that motivate the paper ("all the
// virtual machines handling contiguous keys hosted in the same rack",
// Sec. I). All of them emit the same Schedule type and replay through the
// same engine path.

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
// joiner. Victims are drawn from the generator's own stream, never the
// engine's, so the entire script is fixed up front by `seed` — the same
// churn replays bit-exactly through checkpoints, engine pools and every
// exchange-parallelism level, and can be written to CSV and shared. The experiment grid's "churn" scenario shifts it to start
// at its window's first round.
func UniformChurn(initial, rounds int, rate float64, seed uint64) (*Schedule, error) {
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
		for i := 0; i < kills; i++ {
			s.Events = append(s.Events, Event{Round: r, Op: OpJoin, Node: next})
			alive = append(alive, next)
			next++
		}
	}
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// WeibullLifetimes scripts heterogeneous node lifetimes: every node —
// initial and each replacement — draws a lifetime from a Weibull(shape,
// scale) distribution (shape < 1 is the heavy-tailed "most nodes die
// young, a few live very long" regime measured in P2P availability
// studies; shape = 1 is exponential) and leaves that many rounds after it
// arrives. Deaths before `horizon` are scheduled, and a fresh node joins
// the same round a death fires and draws its own lifetime from there. The
// whole script is fixed by `seed`.
func WeibullLifetimes(initial, horizon int, shape, scale float64, seed uint64) (*Schedule, error) {
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
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// regionFailureEvents appends a leave event at `round` for every node of
// positions whose first coordinate falls in the contiguous region
// [lo, hi) of the torus width — a correlated geographic outage. Node i is
// positions[i].
func regionFailureEvents(events []Event, positions []space.Point, lo, hi float64, round int) []Event {
	for i, p := range positions {
		if p[0] >= lo && p[0] < hi {
			events = append(events, Event{Round: round, Op: OpLeave, Node: i})
		}
	}
	return events
}

// appendJoins appends `count` joins at `round`, numbered from next, and
// returns the next free identity.
func appendJoins(events []Event, round, next, count int) ([]Event, int) {
	for i := 0; i < count; i++ {
		events = append(events, Event{Round: round, Op: OpJoin, Node: next})
		next++
	}
	return events, next
}

// RollingPartition scripts a partition sweeping across the torus: the
// width is cut into `bands` contiguous vertical bands, and band b's nodes
// (by their position in `positions`; node i is positions[i]) leave at
// start + b*stride — rack after rack going dark as the failure front
// rolls through the space. When rejoin >= 0, each band's loss is matched
// by fresh nodes joining `rejoin` rounds after that band fails, modelling
// rolling recovery behind the front.
func RollingPartition(positions []space.Point, width float64, bands, start, stride, rejoin int) (*Schedule, error) {
	if bands <= 0 {
		return nil, fmt.Errorf("trace: rolling partition needs a positive band count (got %d)", bands)
	}
	if width <= 0 {
		return nil, fmt.Errorf("trace: rolling partition needs a positive width (got %v)", width)
	}
	if start < 0 || stride < 0 {
		return nil, fmt.Errorf("trace: rolling partition needs non-negative start and stride (got %d, %d)", start, stride)
	}
	n := len(positions)
	s := &Schedule{Initial: n}
	next := n
	for b := 0; b < bands; b++ {
		lo := width * float64(b) / float64(bands)
		hi := width * float64(b+1) / float64(bands)
		if b == bands-1 {
			hi = width + 1 // last band owns the boundary, clamping rounding spill
		}
		before := len(s.Events)
		s.Events = regionFailureEvents(s.Events, positions, lo, hi, start+b*stride)
		if rejoin >= 0 {
			s.Events, next = appendJoins(s.Events, start+b*stride+rejoin, next, len(s.Events)-before)
		}
	}
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// DatacenterOutage scripts the power-feed failure of one of `datacenters`
// equal datacenters, each hosting a contiguous slab of the torus width:
// every node whose first coordinate falls in [0, width/datacenters)
// leaves at failRound, and — when rejoinRound >= 0 — as many fresh, empty
// nodes join at rejoinRound, the recovery half of the paper's evaluation.
func DatacenterOutage(positions []space.Point, width float64, datacenters, failRound, rejoinRound int) (*Schedule, error) {
	if datacenters <= 0 || width <= 0 {
		return nil, fmt.Errorf("trace: datacenter outage needs positive datacenters and width (got %d, %v)", datacenters, width)
	}
	if failRound < 0 {
		return nil, fmt.Errorf("trace: datacenter outage needs a non-negative fail round (got %d)", failRound)
	}
	if rejoinRound >= 0 && rejoinRound < failRound {
		return nil, fmt.Errorf("trace: rejoin round %d precedes fail round %d", rejoinRound, failRound)
	}
	n := len(positions)
	s := &Schedule{Initial: n}
	s.Events = regionFailureEvents(s.Events, positions, 0, width/float64(datacenters), failRound)
	if rejoinRound >= 0 {
		s.Events, _ = appendJoins(s.Events, rejoinRound, n, len(s.Events))
	}
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return s, nil
}
