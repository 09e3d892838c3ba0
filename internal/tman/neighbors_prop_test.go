package tman

import (
	"slices"
	"sort"
	"testing"
	"unsafe"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// Neighbors returns the k closest view entries of id (crashed entries
// included until id purges them) as a fresh slice, ordered by increasing
// distance to id's current position: the one-shot form of AppendNeighbors
// the package's tests query through. It always ranks the view afresh,
// ranked or not.
func (p *Protocol) Neighbors(id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return nil
	}
	return appendNodeIDs(nil, p.selectClosest(p.ws[0], p.views[id], p.pos(id), k))
}

// neighborsOracle is an independent reimplementation of the neighbour
// query contract — full stable sort of a view copy by (distance, ID) —
// against which every query form is pinned. It deliberately shares no
// code with selectClosest.
func neighborsOracle(p *Protocol, id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return nil
	}
	view := p.View(id)
	pos := p.pos(id)
	sort.SliceStable(view, func(i, j int) bool {
		di := p.cfg.Space.Distance(p.pos(view[i]), pos)
		dj := p.cfg.Space.Distance(p.pos(view[j]), pos)
		if di != dj {
			return di < dj
		}
		return view[i] < view[j]
	})
	if k > len(view) {
		k = len(view)
	}
	return view[:k]
}

// checkNeighborForms asserts that for every node — live or dead (dead
// nodes answer from their stale view), plus out-of-range and negative
// IDs — and a spread of k values, every query form (Neighbors,
// AppendNeighbors, AppendNeighborsW on the last worker slot,
// AppendNeighborsPlan, EachNeighbor) agrees exactly with the oracle.
func checkNeighborForms(t *testing.T, e *sim.Engine, tm *Protocol, phase string) {
	t.Helper()
	probe := make([]sim.NodeID, 0, e.NumNodes()+1)
	for id := 0; id < e.NumNodes(); id++ {
		probe = append(probe, sim.NodeID(id))
	}
	probe = append(probe, sim.NodeID(e.NumNodes()+5), sim.None)
	buf := make([]sim.NodeID, 0, 128)
	appendForms := []struct {
		name  string
		query func(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID
	}{
		{"AppendNeighbors", tm.AppendNeighbors},
		{"AppendNeighborsW", func(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
			return tm.AppendNeighborsW(len(tm.ws)-1, dst, id, k)
		}},
		{"AppendNeighborsPlan", tm.AppendNeighborsPlan},
	}
	for _, id := range probe {
		for _, k := range []int{0, 1, 3, 5, 100} {
			want := neighborsOracle(tm, id, k)

			if got := tm.Neighbors(id, k); !slices.Equal(got, want) {
				t.Fatalf("%s: Neighbors(%d, %d) = %v, oracle %v", phase, id, k, got, want)
			}

			for _, f := range appendForms {
				buf = append(buf[:0], 9999)
				buf = f.query(buf, id, k)
				if buf[0] != 9999 || !slices.Equal(buf[1:], want) {
					t.Fatalf("%s: %s(%d, %d) = %v, oracle %v", phase, f.name, id, k, buf, want)
				}
			}

			var visited []sim.NodeID
			tm.EachNeighbor(id, k, func(nb sim.NodeID) bool {
				visited = append(visited, nb)
				return true
			})
			if !slices.Equal(visited, want) {
				t.Fatalf("%s: EachNeighbor(%d, %d) visited %v, oracle %v", phase, id, k, visited, want)
			}
			if len(want) > 1 {
				visited = visited[:0]
				tm.EachNeighbor(id, k, func(nb sim.NodeID) bool {
					visited = append(visited, nb)
					return len(visited) < 2
				})
				if !slices.Equal(visited, want[:2]) {
					t.Fatalf("%s: early-stopped EachNeighbor(%d, %d) = %v, want %v",
						phase, id, k, visited, want[:2])
				}
			}
		}
	}
}

// TestNeighborQueryFormsUnderChurn is the property test of the PR 3 API
// redesign: through convergence, a catastrophic correlated kill (with one
// round of stale views), recovery, reinjection of fresh nodes and a second
// thinning, the fresh-slice, append and visitor forms stay byte-identical
// to the independent sort oracle.
func TestNeighborQueryFormsUnderChurn(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		w, h := 12, 6
		tor := space.TorusForGrid(w, h, 1)
		pts := space.TorusGrid(w, h, 1)
		n := newTestNet(t, seed, tor, pts)

		n.engine.RunRounds(8)
		checkNeighborForms(t, n.engine, n.tman, "converged")

		for i, p := range pts {
			if space.RightHalf(p, float64(w)) {
				n.engine.Kill(sim.NodeID(i))
			}
		}
		n.engine.RunRounds(1)
		checkNeighborForms(t, n.engine, n.tman, "post-catastrophe")

		n.engine.RunRounds(6)
		checkNeighborForms(t, n.engine, n.tman, "recovered")

		// Reinject fresh nodes on the offset parallel grid.
		for i := 0; i < w*h/4; i++ {
			base := pts[(2*i)%len(pts)]
			n.positions = append(n.positions, tor.Wrap(space.Point{base[0] + 0.5, base[1] + 0.5}))
			n.engine.AddNode()
		}
		n.engine.RunRounds(5)
		checkNeighborForms(t, n.engine, n.tman, "reinjected")

		// Thin the survivors again: every third live node crashes.
		for i, id := range slices.Clone(n.engine.LiveIDs()) {
			if i%3 == 0 {
				n.engine.Kill(id)
			}
		}
		n.engine.RunRounds(2)
		checkNeighborForms(t, n.engine, n.tman, "thinned")
	}
}

// TestViewRowsBoundedAfterCatastrophe: after a 95% correlated kill and a
// reinjection, every view — of a live node or a dead one — still sits in
// its own fixed row of stride ids, live views hold at most viewCap
// entries, and the overlay's view memory is exactly its carved rows ×
// stride × 4 B: whole pages of rows, one row per node ever joined, and no
// per-node capacity a catastrophe could pin.
func TestViewRowsBoundedAfterCatastrophe(t *testing.T) {
	w, h := 40, 20
	tor := space.TorusForGrid(w, h, 1)
	pts := space.TorusGrid(w, h, 1)
	n := newTestNet(t, 7, tor, pts)
	n.engine.RunRounds(10)

	// Kill 95%: keep one node in twenty.
	for _, id := range slices.Clone(n.engine.LiveIDs()) {
		if int(id)%20 != 0 {
			n.engine.Kill(id)
		}
	}
	n.engine.RunRounds(10)
	// Reinject half the grid, half a step off the original points.
	for _, p := range pts[:len(pts)/2] {
		n.positions = append(n.positions, tor.Wrap(space.Point{p[0] + 0.5, p[1] + 0.5}))
	}
	n.engine.AddNodes(len(pts) / 2)
	n.engine.RunRounds(10)

	tm := n.tman
	for _, id := range n.engine.LiveIDs() {
		if l := len(tm.views[id]); l > viewCap {
			t.Fatalf("live node %d view holds %d entries, cap %d", id, l, viewCap)
		}
	}
	rows := make([]uintptr, len(tm.views))
	for id, view := range tm.views {
		if cap(view) != stride {
			t.Fatalf("node %d view capacity %d (len %d), want the stride %d", id, cap(view), len(view), stride)
		}
		rows[id] = uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	}
	slices.Sort(rows)
	for i := 1; i < len(rows); i++ {
		if rows[i]-rows[i-1] < uintptr(stride*4) {
			t.Fatalf("view rows overlap: %#x and %#x are %d B apart, a row is %d B",
				rows[i-1], rows[i], rows[i]-rows[i-1], stride*4)
		}
	}
	carved := tm.rows.pages * pageRows
	if want := (len(tm.views) + pageRows - 1) / pageRows * pageRows; carved != want {
		t.Fatalf("%d rows carved for %d nodes, want %d (whole pages of %d)", carved, len(tm.views), want, pageRows)
	}
	t.Logf("%d nodes, %d rows carved: %d B of view memory", len(tm.views), carved, carved*stride*4)
}
