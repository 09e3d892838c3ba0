package tman

import (
	"slices"
	"testing"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// useFlatTable installs a flat copy of the net's positions as its position
// table and returns a function that re-syncs the copy after positions
// change.
func useFlatTable(n *testNet) (sync func()) {
	var flat []float64
	sync = func() {
		flat = flat[:0]
		for _, p := range n.positions {
			flat = append(flat, p...)
		}
	}
	sync()
	n.tman.UsePositionTable(func() []float64 { return flat })
	return sync
}

// useMoveClock installs a position clock over the net's positions, every
// node stamped at 1, and returns the function that stamps a move of ids.
// Views ranked against a node that moved are then re-ranked, as under
// Polystyrene's clock; joiners need no stamp, since nothing ranked against
// them before they joined.
func useMoveClock(n *testNet) (move func(ids ...sim.NodeID)) {
	moved := slices.Repeat([]uint64{1}, len(n.positions))
	now := uint64(1)
	n.tman.UsePositionClock(func() ([]uint64, uint64) {
		for len(moved) < len(n.positions) {
			moved = append(moved, 0)
		}
		return moved, now
	})
	return func(ids ...sim.NodeID) {
		now++
		for _, id := range ids {
			moved[id] = now
		}
	}
}

// TestPositionTableMatchesPositionFunc: ranking over an installed table is
// the same trajectory as ranking through Config.Position — the reference
// path — through convergence, a teleport (stamped through a move clock),
// a correlated kill and joins.
func TestPositionTableMatchesPositionFunc(t *testing.T) {
	const w, h = 16, 8
	tor := space.TorusForGrid(w, h, 1)
	ref := newTestNet(t, 12, tor, space.TorusGrid(w, h, 1))
	tab := newTestNet(t, 12, tor, space.TorusGrid(w, h, 1))
	sync := useFlatTable(tab)
	moves := []func(ids ...sim.NodeID){useMoveClock(ref), useMoveClock(tab)}
	same := func(phase string) {
		t.Helper()
		for id := range ref.tman.views {
			if !slices.Equal(ref.tman.views[id], tab.tman.views[id]) {
				t.Fatalf("%s: node %d view %v with the table, %v through Position",
					phase, id, tab.tman.views[id], ref.tman.views[id])
			}
		}
	}
	for _, n := range []*testNet{ref, tab} {
		n.engine.RunRounds(6)
	}
	same("converged")
	for i, n := range []*testNet{ref, tab} {
		n.positions[3] = space.Point{12.5, 4}
		moves[i](3)
		for i, p := range n.positions {
			if p[0] >= 12 && i != 3 {
				n.engine.Kill(sim.NodeID(i))
			}
		}
		n.positions = append(n.positions, space.Point{0.5, 0.5}, space.Point{7.5, 3.5})
		n.engine.AddNodes(2)
	}
	sync()
	for r := 0; r < 6; r++ {
		ref.engine.RunRounds(1)
		tab.engine.RunRounds(1)
		same("after teleport, kill and joins")
	}
}

// TestGossipRoundAllocs pins the warmed steady-state gossip round at 0
// allocs, through Config.Position and with a position table installed,
// and that under the static clock every view ends each round ranked.
func TestGossipRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("AllocsPerRun is unreliable under -race; the race step runs -short")
	}
	for _, table := range []bool{false, true} {
		n := newTestNet(t, 13, space.TorusForGrid(40, 20, 1), space.TorusGrid(40, 20, 1))
		if table {
			useFlatTable(n)
		}
		// Views and pooled buffers reach their working sizes over the
		// first ~30 rounds; AllocsPerRun then averages (rounding down)
		// over 30 warm rounds, the regime the 0-allocs contract is
		// defined on (BenchmarkGossipRound's, 800 nodes).
		n.engine.RunRounds(30)
		if avg := testing.AllocsPerRun(30, func() { n.engine.RunRounds(1) }); avg != 0 {
			t.Errorf("table=%v: steady-state gossip round allocates %.1f objects, want 0", table, avg)
		}
		for id := range n.tman.views {
			if !n.tman.ranked(sim.NodeID(id)) {
				t.Fatalf("table=%v: view of node %d not ranked", table, id)
			}
		}
	}
}
