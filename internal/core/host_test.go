package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// nearestHost is a bare overlay host: an exact k-nearest overlay that
// ranks the live nodes by the Polystyrene layer's positions, ordered by
// (distance, id). It offers Topology and nothing else — no
// WorkerTopology, PositionTableUser or PositionClockUser — so it runs the
// layer through the add-on contract alone. It gossips nothing: its
// sim.Protocol methods are no-ops.
type nearestHost struct {
	e     *sim.Engine
	poly  *Protocol
	space space.Space
	live  []sim.NodeID
	cand  []nearestCand
}

type nearestCand struct {
	d  float64
	id sim.NodeID
}

func (h *nearestHost) Name() string                     { return "nearest" }
func (h *nearestHost) InitNode(*sim.Engine, sim.NodeID) {}
func (h *nearestHost) Step(*sim.Engine, sim.NodeID)     {}

func (h *nearestHost) AppendNeighbors(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	h.EachNeighbor(id, k, func(n sim.NodeID) bool {
		dst = append(dst, n)
		return true
	})
	return dst
}

func (h *nearestHost) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	if k <= 0 || id < 0 || int(id) >= h.e.NumNodes() {
		return
	}
	self := h.poly.Position(id)
	h.live = h.e.AppendLiveIDs(h.live[:0])
	h.cand = h.cand[:0]
	for _, n := range h.live {
		if n != id {
			h.cand = append(h.cand, nearestCand{h.space.Distance(self, h.poly.Position(n)), n})
		}
	}
	slices.SortFunc(h.cand, func(a, b nearestCand) int {
		return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.id, b.id))
	})
	for _, c := range h.cand[:min(k, len(h.cand))] {
		if !yield(c.id) {
			return
		}
	}
}

// TestBareTopologyHostReshapes runs the layer over nearestHost, which
// offers only Topology: the paper's claim that Polystyrene plugs into any
// topology construction algorithm (Sec. II-C), checked against the bare
// contract rather than a host that also takes the layer's position table.
// Without WorkerTopology the layer must stay sequential at every exchange
// parallelism, and it must still recover the shape after the half-torus
// catastrophe.
func TestBareTopologyHostReshapes(t *testing.T) {
	for _, w := range []int{0, 2} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			st := &stack{
				points:  space.TorusGrid(16, 8, 1),
				space:   space.TorusForGrid(16, 8, 1),
				sampler: rps.New(rps.Config{}),
				w:       16, h: 8,
			}
			host := &nearestHost{space: st.space}
			poly, err := New(Config{
				Space:    st.space,
				Topology: host,
				Sampler:  st.sampler,
				K:        4,
				InitialPoint: func(id sim.NodeID) (space.Point, bool) {
					return st.points[id], true
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			st.poly, host.poly = poly, poly
			st.engine = sim.New(8, st.sampler, host, poly)
			host.e = st.engine
			st.engine.SetExchangeParallelism(w)
			defer st.engine.Close()
			st.engine.AddNodes(len(st.points))

			if poly.Batchable() {
				t.Fatal("layer over a host without WorkerTopology reports Batchable")
			}
			checkHalfCrashRecovery(t, st)
		})
	}
}
