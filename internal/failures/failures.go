// Package failures models the correlated failure domains that motivate
// the paper: overlays whose node placement follows the physical
// infrastructure ("all the virtual machines handling contiguous keys
// hosted in the same rack", Sec. I) inherit that infrastructure's
// failure correlation — a rack PDU, a datacenter power feed, a cloud
// region can all take out a contiguous slab of the topology at once.
//
// A Hierarchy assigns every node a (datacenter, rack) coordinate, either
// correlated with the node's position in the data space (the dangerous
// deployment the paper warns about) or random (the classic assumption).
// The schedule generators of schedule.go then crash whole domains, and the
// tests compare how much of the shape each placement policy loses.
package failures

import (
	"fmt"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// Placement selects how infrastructure coordinates relate to overlay
// positions.
type Placement int

const (
	// Correlated assigns contiguous regions of the data space to the same
	// rack and datacenter — cross-layer-optimised deployments (data
	// locality, as in Meghdoot or rack-aware schedulers).
	Correlated Placement = iota + 1
	// Scattered assigns infrastructure coordinates uniformly at random,
	// the uncorrelated baseline assumption of classic overlay designs.
	Scattered
)

// Hierarchy maps nodes onto a two-level infrastructure tree:
// datacenters × racks-per-datacenter.
type Hierarchy struct {
	// Datacenters and RacksPerDC describe the tree.
	Datacenters int
	RacksPerDC  int

	placement Placement
	// assignment[id] is the node's global rack index
	// (dc*RacksPerDC + rack).
	assignment map[sim.NodeID]int
}

// NewHierarchy builds a hierarchy for the given initial positions. Under
// Correlated placement, nodes are assigned racks by slicing the first
// coordinate of their position into Datacenters*RacksPerDC contiguous
// bands of the torus width; under Scattered they are assigned uniformly
// at random from rng.
func NewHierarchy(datacenters, racksPerDC int, placement Placement,
	positions []space.Point, width float64, rng *xrand.Rand) (*Hierarchy, error) {
	if datacenters <= 0 || racksPerDC <= 0 {
		return nil, fmt.Errorf("failures: hierarchy needs positive dimensions")
	}
	if placement != Correlated && placement != Scattered {
		return nil, fmt.Errorf("failures: unknown placement %d", placement)
	}
	if placement == Correlated && width <= 0 {
		return nil, fmt.Errorf("failures: correlated placement needs a positive width")
	}
	if placement == Scattered && rng == nil {
		return nil, fmt.Errorf("failures: scattered placement needs an rng")
	}
	h := &Hierarchy{
		Datacenters: datacenters,
		RacksPerDC:  racksPerDC,
		placement:   placement,
		assignment:  make(map[sim.NodeID]int, len(positions)),
	}
	totalRacks := datacenters * racksPerDC
	for i, p := range positions {
		id := sim.NodeID(i)
		switch placement {
		case Correlated:
			band := int(p[0] / width * float64(totalRacks))
			if band >= totalRacks {
				band = totalRacks - 1
			}
			h.assignment[id] = band
		case Scattered:
			h.assignment[id] = rng.Intn(totalRacks)
		}
	}
	return h, nil
}

// Datacenter returns id's datacenter index (-1 when unknown).
func (h *Hierarchy) Datacenter(id sim.NodeID) int {
	rack, ok := h.assignment[id]
	if !ok {
		return -1
	}
	return rack / h.RacksPerDC
}

// Rack returns id's rack-within-datacenter index (-1 when unknown).
func (h *Hierarchy) Rack(id sim.NodeID) int {
	rack, ok := h.assignment[id]
	if !ok {
		return -1
	}
	return rack % h.RacksPerDC
}
