// Package metrics implements the five evaluation metrics of the paper
// (Sec. IV-A) — proximity, homogeneity (with its reference value H and the
// derived reshaping time), data points per node, message cost — plus the
// reliability measure of Table II and the summary statistics (mean and 95%
// confidence intervals) used to aggregate repeated experiments.
//
// Homogeneity and Reliability exist in two equivalent forms: the
// full-scan originals, which rebuild the guests⁻¹ map from scratch on
// every call (O(N·g) plus a string key per hosted point), and the indexed
// forms, which read a HolderIndex (the core layer's, a table it builds
// once per change of its guest sets, or the baseline's table of fixed
// positions) in O(holders) per data point. Every run reads the indexed
// forms; the full-scan forms are kept only as the reference oracle that
// tests hold the indexed forms to, bit for bit.
package metrics

import (
	"math"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// System is the read-only view of a running overlay that the metrics need.
// Both configurations of the paper implement it: Polystyrene-over-T-Man,
// and plain T-Man (where Guests(n) is defined as {n.pos} and ghosts are
// counted as zero, exactly as in Sec. IV-A).
type System interface {
	// Space returns the metric data space.
	Space() space.Space
	// Live returns the IDs of live nodes in ascending order. The returned
	// slice is only valid until the next Live call — implementations may
	// reuse one buffer — and must not be mutated.
	Live() []sim.NodeID
	// Alive reports whether a node is currently live.
	Alive(id sim.NodeID) bool
	// Position returns a live node's current virtual position.
	Position(id sim.NodeID) space.Point
	// Guests returns the data points a node currently hosts as primary.
	// The slice is only valid until the next Guests call — implementations
	// may reuse one buffer — and must not be mutated; only the full-scan
	// oracle paths consume it (fast paths use NumGuests or a HolderIndex).
	Guests(id sim.NodeID) []space.Point
	// NumGuests returns the number of primary data points at a node.
	NumGuests(id sim.NodeID) int
	// NumGhosts returns the number of inactive replica points at a node.
	NumGhosts(id sim.NodeID) int
	// EachNeighbor visits the k closest overlay neighbours of a node in
	// increasing distance order, stopping early when yield returns false —
	// the zero-copy form of core.Topology, which keeps the per-round
	// metric loop allocation-free. yield must not call back into the
	// underlying topology.
	EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool)
}

// HolderIndex is a guests⁻¹ view: for an interned data point, the nodes
// currently hosting it as a guest, in any order. core.Protocol satisfies
// it with live nodes only, from a table it rebuilds after its guest sets
// or the live set change; the baseline stack with every node whose fixed
// position is the point, dead ones included. The interface does not
// promise liveness, so consumers still filter with System.Alive; the
// metrics' values do not depend on the order (a minimum, or whether any
// holder is live).
type HolderIndex interface {
	HoldersOf(id space.PointID) []sim.NodeID
}

// Proximity is the paper's main topology-quality metric: the mean distance
// between a node and its k closest overlay neighbours (k = 4 in the
// evaluation). Lower is better; on a converged unit-step torus grid the
// optimum is 1.0.
func Proximity(sys System, k int) float64 {
	s := sys.Space()
	sum, count := 0.0, 0
	// One visitor closure serves every node (its captured variables are
	// hoisted), so the whole sweep performs no per-node allocations.
	var pos space.Point
	visit := func(nb sim.NodeID) bool {
		sum += s.Distance(pos, sys.Position(nb))
		count++
		return true
	}
	for _, id := range sys.Live() {
		pos = sys.Position(id)
		sys.EachNeighbor(id, k, visit)
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Homogeneity measures how well the original shape is conserved: the mean,
// over all original data points x, of the distance from x to the nearest
// node that hosts x as a guest — or, when x has been lost, to the nearest
// node of the whole network (the ĝuests⁻¹ fallback of Sec. IV-A). Lower is
// better; 0 means every original point is hosted exactly in place.
//
// This is the full-scan reference that tests hold HomogeneityIndexed, the
// form every run reads, to.
func Homogeneity(sys System, datapoints []space.Point) float64 {
	live := sys.Live()
	if len(live) == 0 || len(datapoints) == 0 {
		return 0
	}
	s := sys.Space()

	// guests⁻¹: map every hosted point key to its primary holders.
	holders := make(map[string][]sim.NodeID)
	for _, id := range live {
		for _, g := range sys.Guests(id) {
			k := g.Key()
			holders[k] = append(holders[k], id)
		}
	}

	sum := 0.0
	for _, x := range datapoints {
		hs := holders[x.Key()]
		best := math.Inf(1)
		if len(hs) > 0 {
			for _, id := range hs {
				if d := s.Distance(x, sys.Position(id)); d < best {
					best = d
				}
			}
		} else {
			// Point lost: fall back to the nearest node overall.
			for _, id := range live {
				if d := s.Distance(x, sys.Position(id)); d < best {
					best = d
				}
			}
		}
		sum += best
	}
	return sum / float64(len(datapoints))
}

// HomogeneityIndexed computes exactly Homogeneity, but resolves each data
// point's holders through a HolderIndex instead of rebuilding the
// guests⁻¹ map: O(holders) per hosted point, touching live nodes only for
// lost points. ids must carry the datapoints' interned IDs in lockstep
// (from the same interner the index uses).
func HomogeneityIndexed(sys System, idx HolderIndex, datapoints []space.Point, ids []space.PointID) float64 {
	if len(datapoints) != len(ids) {
		panic("metrics: datapoints and ids length mismatch")
	}
	live := sys.Live()
	if len(live) == 0 || len(datapoints) == 0 {
		return 0
	}
	s := sys.Space()
	sum := 0.0
	for i, x := range datapoints {
		best := math.Inf(1)
		hosted := false
		for _, id := range idx.HoldersOf(ids[i]) {
			if !sys.Alive(id) {
				continue
			}
			hosted = true
			if d := s.Distance(x, sys.Position(id)); d < best {
				best = d
			}
		}
		if !hosted {
			for _, id := range live {
				if d := s.Distance(x, sys.Position(id)); d < best {
					best = d
				}
			}
		}
		sum += best
	}
	return sum / float64(len(datapoints))
}

// ReferenceHomogeneity returns H^N_A = (1/2)·sqrt(A/N), the paper's rough
// upper bound on the homogeneity of an ideal distribution of N nodes over
// a 2D surface of area A (Sec. IV-A). A topology counts as "reshaped" once
// its measured homogeneity drops below this value.
func ReferenceHomogeneity(area float64, nodes int) float64 {
	if nodes <= 0 {
		return math.Inf(1)
	}
	return 0.5 * math.Sqrt(area/float64(nodes))
}

// DataPointsPerNode is the paper's memory-overhead metric: the mean number
// of data points (guests and ghosts alike) per live node. For plain T-Man
// this is exactly 1.
func DataPointsPerNode(sys System) float64 {
	live := sys.Live()
	if len(live) == 0 {
		return 0
	}
	total := 0
	for _, id := range live {
		total += sys.NumGuests(id) + sys.NumGhosts(id)
	}
	return float64(total) / float64(len(live))
}

// MessageCostPerNode returns the communication units charged in the given
// round, averaged over live nodes, using the engine's meter.
func MessageCostPerNode(e *sim.Engine, round int) float64 {
	if e.NumLive() == 0 {
		return 0
	}
	return float64(e.Meter().TotalRoundCost(round)) / float64(e.NumLive())
}

// Reliability is the Table II measure: the fraction of the original data
// points still hosted (as a guest) by at least one live node.
//
// This is the full-scan reference that tests hold ReliabilityIndexed, the
// form every run reads, to.
func Reliability(sys System, datapoints []space.Point) float64 {
	if len(datapoints) == 0 {
		return 1
	}
	hosted := make(map[string]bool)
	for _, id := range sys.Live() {
		for _, g := range sys.Guests(id) {
			hosted[g.Key()] = true
		}
	}
	surviving := 0
	for _, x := range datapoints {
		if hosted[x.Key()] {
			surviving++
		}
	}
	return float64(surviving) / float64(len(datapoints))
}

// ReliabilityIndexed computes exactly Reliability through the holders
// index: a point survives iff any of its indexed holders is live. ids are
// the original datapoints' interned IDs.
func ReliabilityIndexed(sys System, idx HolderIndex, ids []space.PointID) float64 {
	if len(ids) == 0 {
		return 1
	}
	surviving := 0
	for _, pid := range ids {
		for _, id := range idx.HoldersOf(pid) {
			if sys.Alive(id) {
				surviving++
				break
			}
		}
	}
	return float64(surviving) / float64(len(ids))
}
