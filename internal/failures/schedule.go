package failures

import (
	"fmt"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/trace"
)

// This file turns the failure-domain models into replayable availability
// schedules (trace.Schedule): the same correlated outages the tests'
// direct injectors (FailRack, FailDatacenter) apply live to an engine,
// expressed as pre-computed join/leave scripts that replay through
// scenario.DriveSchedule — so scripted attacks, real traces and the
// paper's catastrophes all share one deterministic code path. Property
// tests pin each generator to direct event-by-event application of its
// injector.

// DomainFailureEvents appends a leave event at `round` for every node in
// [0, n) the hierarchy assigns to datacenter dc — the whole power-feed
// domain — or, when rack >= 0, only to (dc, rack). The returned slice is
// NOT yet canonical; compose events into a Schedule and Canonicalize.
func DomainFailureEvents(events []trace.Event, h *Hierarchy, n, round, dc, rack int) []trace.Event {
	for i := 0; i < n; i++ {
		id := sim.NodeID(i)
		if h.Datacenter(id) != dc {
			continue
		}
		if rack >= 0 && h.Rack(id) != rack {
			continue
		}
		events = append(events, trace.Event{Round: round, Op: trace.OpLeave, Node: i})
	}
	return events
}

// RegionFailureEvents appends a leave event at `round` for every node of
// positions whose first coordinate falls in the contiguous region
// [lo, hi) of the torus width — a correlated geographic outage. Node i is
// positions[i].
func RegionFailureEvents(events []trace.Event, positions []space.Point, lo, hi float64, round int) []trace.Event {
	for i, p := range positions {
		if p[0] >= lo && p[0] < hi {
			events = append(events, trace.Event{Round: round, Op: trace.OpLeave, Node: i})
		}
	}
	return events
}

// DatacenterOutage scripts a full correlated datacenter (power-feed)
// failure: every node the hierarchy assigns to dc leaves at failRound,
// and — when rejoinRound >= 0 — the same number of fresh, empty nodes
// joins at rejoinRound, the recovery half of the paper's evaluation. n is
// the population the hierarchy was built over.
func DatacenterOutage(h *Hierarchy, n, failRound, rejoinRound, dc int) (*trace.Schedule, error) {
	if n < 0 || failRound < 0 {
		return nil, fmt.Errorf("failures: datacenter outage needs non-negative population and fail round (got %d, %d)", n, failRound)
	}
	if dc < 0 || dc >= h.Datacenters {
		return nil, fmt.Errorf("failures: datacenter %d out of range [0,%d)", dc, h.Datacenters)
	}
	if rejoinRound >= 0 && rejoinRound < failRound {
		return nil, fmt.Errorf("failures: rejoin round %d precedes fail round %d", rejoinRound, failRound)
	}
	s := &trace.Schedule{Initial: n}
	s.Events = DomainFailureEvents(s.Events, h, n, failRound, dc, -1)
	if rejoinRound >= 0 {
		killed := len(s.Events)
		for i := 0; i < killed; i++ {
			s.Events = append(s.Events, trace.Event{Round: rejoinRound, Op: trace.OpJoin, Node: n + i})
		}
	}
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// RollingPartition scripts a partition sweeping across the torus: the
// width is cut into `bands` contiguous vertical bands, and band b's nodes
// (by their position in `positions`; node i is positions[i]) leave at
// start + b*stride — rack after rack going dark as the failure front
// rolls through the space. When rejoin >= 0, each band's loss is matched
// by fresh nodes joining `rejoin` rounds after that band fails, modelling
// rolling recovery behind the front.
func RollingPartition(positions []space.Point, width float64, bands, start, stride, rejoin int) (*trace.Schedule, error) {
	if bands <= 0 {
		return nil, fmt.Errorf("failures: rolling partition needs a positive band count (got %d)", bands)
	}
	if width <= 0 {
		return nil, fmt.Errorf("failures: rolling partition needs a positive width (got %v)", width)
	}
	if start < 0 || stride < 0 {
		return nil, fmt.Errorf("failures: rolling partition needs non-negative start and stride (got %d, %d)", start, stride)
	}
	n := len(positions)
	s := &trace.Schedule{Initial: n}
	next := n
	for b := 0; b < bands; b++ {
		lo := width * float64(b) / float64(bands)
		hi := width * float64(b+1) / float64(bands)
		if b == bands-1 {
			hi = width + 1 // last band owns the boundary, clamping rounding spill
		}
		before := len(s.Events)
		s.Events = RegionFailureEvents(s.Events, positions, lo, hi, start+b*stride)
		if rejoin >= 0 {
			// Count the band's kills before appending joins: the loop grows
			// s.Events, so it must not bound itself on the live length.
			killed := len(s.Events) - before
			for i := 0; i < killed; i++ {
				s.Events = append(s.Events, trace.Event{Round: start + b*stride + rejoin, Op: trace.OpJoin, Node: next})
				next++
			}
		}
	}
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return s, nil
}
