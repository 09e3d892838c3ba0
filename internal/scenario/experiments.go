package scenario

import (
	"fmt"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// Phases fixes the round boundaries of the paper's evaluation scenario.
type Phases struct {
	// FailAt is the round of the catastrophic failure (paper: 20).
	FailAt int
	// ReinjectAt is the round fresh nodes are injected (paper: 100).
	ReinjectAt int
	// End is the total number of rounds (paper: 200).
	End int
}

// PaperPhases returns the boundaries used in the paper (Sec. IV-A).
func PaperPhases() Phases { return Phases{FailAt: 20, ReinjectAt: 100, End: 200} }

// Validate checks phase ordering.
func (p Phases) Validate() error {
	if !(0 < p.FailAt && p.FailAt <= p.ReinjectAt && p.ReinjectAt <= p.End) {
		return fmt.Errorf("scenario: invalid phases %+v (need 0 < FailAt <= ReinjectAt <= End)", p)
	}
	return nil
}

// ReshapingOutcome is one observation for Table II.
type ReshapingOutcome struct {
	// Rounds is the reshaping time: rounds from the failure until the
	// homogeneity first drops below the reference H of the surviving
	// population. Equal to MaxRounds+1 when never reached.
	Rounds int
	// Reached reports whether the homogeneity threshold was met.
	Reached bool
	// Reliability is the surviving fraction of original data points,
	// measured when the threshold is reached (or at the round budget).
	Reliability float64
	// Homogeneity and ReferenceH are h and H at the stop round: the last
	// homogeneity the threshold check read, and the reference it was
	// checked against (so Reached implies Homogeneity < ReferenceH).
	Homogeneity float64
	ReferenceH  float64
}

// MeasureReshaping converges a fresh system for convergeRounds, triggers
// the half-torus catastrophe, and counts the rounds needed for the
// homogeneity to drop below the reference value (Sec. IV-A). The engine is
// closed before returning.
func MeasureReshaping(cfg Config, convergeRounds, maxRounds int) (ReshapingOutcome, error) {
	cfg.SkipMetrics = true
	sc, err := New(cfg)
	if err != nil {
		return ReshapingOutcome{}, err
	}
	defer sc.Close()
	sc.Run(convergeRounds)
	return measureReshapingTail(sc, maxRounds), nil
}

// measureReshapingTail triggers the catastrophe on a converged (or
// warm-restored) scenario and measures the reshaping time — the shared
// second half of MeasureReshaping and MeasureReshapingFrom.
func measureReshapingTail(sc *Scenario, maxRounds int) ReshapingOutcome {
	sc.FailRightHalf()
	ref := sc.ReferenceHomogeneity()
	var h float64
	rounds, reached := sc.Engine.RunUntil(maxRounds, func(*sim.Engine, int) bool {
		h = sc.Homogeneity()
		return h < ref
	})
	if !reached {
		rounds = maxRounds + 1
	}
	return ReshapingOutcome{
		Rounds:      rounds,
		Reached:     reached,
		Reliability: sc.Reliability(),
		Homogeneity: h,
		ReferenceH:  ref,
	}
}

// splitmix64 is the avalanche step of the splitmix64 generator, used to
// derive well-separated cell seeds.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CellSeed derives one grid cell's seed by chaining the base seed, a
// variant label and the cell coordinates through splitmix64. Additive
// derivations (base + f(cell)) collide — rep r of an N-node cell equals
// rep 0 of an (N+r)-node cell, and same-size variants share seeds — so
// every distinguishing component is mixed through a full avalanche
// instead. The experiment-grid runner (internal/experiments) derives every
// engine, schedule and detector seed through it.
func CellSeed(base uint64, label string, parts ...uint64) uint64 {
	x := splitmix64(base ^ uint64(len(label)))
	for _, b := range []byte(label) {
		x = splitmix64(x ^ uint64(b))
	}
	for _, p := range parts {
		x = splitmix64(x ^ p)
	}
	return x
}

// NodeSnapshot is the rendered state of one node (Figs. 1, 8, 9). The
// Neighbors slices of one Snapshot call share a single backing array —
// read them freely (as the viz renderers do), but do not append to them.
type NodeSnapshot struct {
	ID        sim.NodeID
	Pos       space.Point
	Neighbors []sim.NodeID
}

// Snapshot captures every live node's position and its neighborK closest
// overlay neighbours for rendering. All neighbour lists append into one
// exact-capacity backing array (at most neighborK entries per live node),
// so a snapshot costs two allocations plus the cloned positions instead
// of one slice per node.
func (sc *Scenario) Snapshot() []NodeSnapshot {
	live := sc.Engine.LiveIDs()
	out := make([]NodeSnapshot, 0, len(live))
	nbrs := make([]sim.NodeID, 0, len(live)*neighborK)
	for _, id := range live {
		start := len(nbrs)
		nbrs = sc.topo.AppendNeighbors(nbrs, id, neighborK)
		out = append(out, NodeSnapshot{
			ID:        id,
			Pos:       sc.Position(id).Clone(),
			Neighbors: nbrs[start:len(nbrs):len(nbrs)],
		})
	}
	return out
}
