// Package route implements greedy geometric routing over the constructed
// overlay, the canonical application the paper motivates Polystyrene with:
// "losing the shape of the topology might affect system performance, e.g.
// routing or load balancing, which often relies on a uniform distribution
// of nodes along the topology" (Sec. I).
//
// A message heads for a target point in the data space; at every hop the
// current node forwards it to whichever overlay neighbour is closest to
// the target, and delivery ends at a local minimum — the node none of
// whose neighbours improves on it (CAN-style greedy routing). On an intact
// torus grid this reaches the node nearest the target in roughly
// (Manhattan distance / step) hops. After a catastrophic failure, greedy
// routing over a collapsed shape stalls far from any target in the dead
// region, while over a Polystyrene-recovered shape it keeps working — the
// routing experiment in this package's tests and benches quantifies that.
package route

import (
	"fmt"

	"polystyrene/internal/core"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// Defaults.
const (
	// DefaultFanout is how many closest neighbours each hop considers.
	DefaultFanout = 4
	// DefaultMaxHops bounds a route; greedy routing on an n-node torus
	// needs O(sqrt(n)) hops, so this is generous for the scales we run.
	DefaultMaxHops = 256
)

// Router performs greedy routing over a topology layer.
type Router struct {
	// Space supplies the metric.
	Space space.Space
	// Topology enumerates overlay neighbours (T-Man).
	Topology core.Topology
	// Position resolves current node positions.
	Position func(id sim.NodeID) space.Point
	// Fanout is the number of closest neighbours considered per hop
	// (0 means DefaultFanout).
	Fanout int
	// MaxHops bounds the path length (0 means DefaultMaxHops).
	MaxHops int
}

// Result describes one routed message.
type Result struct {
	// Path is the sequence of nodes visited, starting at the source.
	Path []sim.NodeID
	// Dest is the node the message stopped at.
	Dest sim.NodeID
	// Hops is len(Path) - 1.
	Hops int
	// FinalDistance is the distance between Dest's position and the
	// target point.
	FinalDistance float64
	// Converged is false when the route was cut off by MaxHops.
	Converged bool
}

// Route greedily forwards a message from the given source node towards the
// target point and returns the resulting path. It returns an error when
// the source is invalid.
func (r *Router) Route(e *sim.Engine, from sim.NodeID, target space.Point) (Result, error) {
	if !e.Alive(from) {
		return Result{}, fmt.Errorf("route: source node %d is not alive", from)
	}
	fanout := r.Fanout
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	maxHops := r.MaxHops
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}

	path := []sim.NodeID{from}
	current, currentDist, converged := r.descend(e, from, target, fanout, maxHops,
		func(hop sim.NodeID) { path = append(path, hop) })
	return Result{
		Path:          path,
		Dest:          current,
		Hops:          len(path) - 1,
		FinalDistance: currentDist,
		Converged:     converged,
	}, nil
}

// Descend greedily walks from the given live node towards the target and
// returns the delivery node — the local minimum none of whose neighbours
// is closer to the target — together with its distance to the target and
// whether the walk terminated within the hop budget. It is Route without
// the path record: nothing is retained, so a descent performs only the
// visitor-closure allocation. This is the primitive point lookups build
// on.
func (r *Router) Descend(e *sim.Engine, from sim.NodeID, target space.Point) (sim.NodeID, float64, error) {
	if !e.Alive(from) {
		return sim.None, 0, fmt.Errorf("route: source node %d is not alive", from)
	}
	fanout := r.Fanout
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	maxHops := r.MaxHops
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	dest, d, converged := r.descend(e, from, target, fanout, maxHops, nil)
	if !converged {
		return dest, d, fmt.Errorf("route: descent from %d truncated after %d hops", from, maxHops)
	}
	return dest, d, nil
}

// descend is the shared greedy walk: at every hop the fanout closest
// overlay neighbours are visited through the topology's zero-copy
// EachNeighbor form, and the message moves to whichever is closest to the
// target. onHop, when non-nil, observes each node the walk moves to.
func (r *Router) descend(e *sim.Engine, from sim.NodeID, target space.Point,
	fanout, maxHops int, onHop func(sim.NodeID)) (dest sim.NodeID, dist float64, converged bool) {

	current := from
	currentDist := r.Space.Distance(r.Position(current), target)
	// The visitor closure is hoisted out of the hop loop; next/nextDist
	// carry the per-hop argmin across calls.
	next := sim.None
	nextDist := currentDist
	visit := func(nb sim.NodeID) bool {
		if e.Alive(nb) {
			if d := r.Space.Distance(r.Position(nb), target); d < nextDist {
				next, nextDist = nb, d
			}
		}
		return true
	}
	for hop := 0; hop < maxHops; hop++ {
		next, nextDist = sim.None, currentDist
		r.Topology.EachNeighbor(current, fanout, visit)
		if next == sim.None {
			// Local minimum: nobody closer — greedy delivery point.
			return current, currentDist, true
		}
		current, currentDist = next, nextDist
		if onHop != nil {
			onHop(current)
		}
	}
	return current, currentDist, false
}

// Probe routes from a fixed source to every target and aggregates quality:
// the mean and worst final distance, and the mean hop count. It skips no
// targets; callers choose probes that cover the region of interest.
func (r *Router) Probe(e *sim.Engine, from sim.NodeID, targets []space.Point) (ProbeStats, error) {
	var st ProbeStats
	for _, target := range targets {
		res, err := r.Route(e, from, target)
		if err != nil {
			return ProbeStats{}, err
		}
		st.Routes++
		st.TotalHops += res.Hops
		st.TotalFinalDistance += res.FinalDistance
		if res.FinalDistance > st.WorstFinalDistance {
			st.WorstFinalDistance = res.FinalDistance
		}
		if !res.Converged {
			st.Truncated++
		}
	}
	return st, nil
}

// ProbeStats aggregates a batch of routes.
type ProbeStats struct {
	Routes             int
	TotalHops          int
	TotalFinalDistance float64
	WorstFinalDistance float64
	Truncated          int
}

// MeanHops returns the average path length.
func (s ProbeStats) MeanHops() float64 {
	if s.Routes == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.Routes)
}

// MeanFinalDistance returns the average distance between the delivery node
// and the target.
func (s ProbeStats) MeanFinalDistance() float64 {
	if s.Routes == 0 {
		return 0
	}
	return s.TotalFinalDistance / float64(s.Routes)
}
