package vicinity

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
	n.vic.UsePositionTable(func() []float64 { return flat })
	return sync
}

// TestPositionTableMatchesPositionFunc: ranking over an installed table is
// the same trajectory as ranking through Config.Position — the reference
// path — through convergence, a teleport, a correlated kill and joins.
func TestPositionTableMatchesPositionFunc(t *testing.T) {
	const w, h = 16, 8
	tor := space.TorusForGrid(w, h, 1)
	ref := newTestNet(t, 12, tor, space.TorusGrid(w, h, 1), Config{})
	tab := newTestNet(t, 12, tor, space.TorusGrid(w, h, 1), Config{})
	sync := useFlatTable(tab)
	same := func(phase string) {
		t.Helper()
		for id := range ref.vic.views {
			if !slices.Equal(ref.vic.views[id], tab.vic.views[id]) {
				t.Fatalf("%s: node %d view %v with the table, %v through Position",
					phase, id, tab.vic.views[id], ref.vic.views[id])
			}
		}
	}
	for _, n := range []*testNet{ref, tab} {
		n.engine.RunRounds(6)
	}
	same("converged")
	for _, n := range []*testNet{ref, tab} {
		n.positions[3] = space.Point{12.5, 4}
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
// allocs, through Config.Position and with a position table installed.
func TestGossipRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("AllocsPerRun is unreliable under -race; the race step runs -short")
	}
	for _, table := range []bool{false, true} {
		n := newTestNet(t, 13, space.TorusForGrid(40, 20, 1), space.TorusGrid(40, 20, 1), Config{})
		if table {
			useFlatTable(n)
		}
		// Warm every pooled buffer first; AllocsPerRun then averages
		// (rounding down) over 30 warm rounds, the regime the 0-allocs
		// contract is defined on (BenchmarkGossipRound's, 800 nodes).
		n.engine.RunRounds(10)
		if avg := testing.AllocsPerRun(30, func() { n.engine.RunRounds(1) }); avg != 0 {
			t.Errorf("table=%v: steady-state gossip round allocates %.1f objects, want 0", table, avg)
		}
	}
}
