package scenario

import (
	"testing"

	"polystyrene/internal/space"
)

// convergedGrid returns a 20x10 scenario after 15 rounds, its overlay
// settled into the grid.
func convergedGrid(t *testing.T, seed uint64) *Scenario {
	t.Helper()
	sc := MustNew(Config{Seed: seed, W: 20, H: 10, Polystyrene: true, K: 4, SkipMetrics: true})
	sc.Run(15)
	return sc
}

func TestDescendReachesTarget(t *testing.T) {
	sc := convergedGrid(t, 1)
	dest, d, hops, converged := sc.Descend(0, space.Point{10, 5}, 4)
	if !converged {
		t.Fatal("descent truncated on an intact grid")
	}
	// On a unit grid the greedy minimum is the node on the target cell.
	if d > 0.01 {
		t.Fatalf("final distance %v, want ~0 on intact grid", d)
	}
	if hops == 0 || dest == 0 {
		t.Fatalf("crossing half the torus went nowhere: dest %d after %d hops", dest, hops)
	}
}

func TestDescendToOwnPosition(t *testing.T) {
	sc := convergedGrid(t, 2)
	dest, _, hops, _ := sc.Descend(5, sc.Position(5), 4)
	if hops != 0 || dest != 5 {
		t.Fatalf("descent to its own position moved: dest %d after %d hops", dest, hops)
	}
}

func TestDescendHopEfficiency(t *testing.T) {
	// Greedy hops on the grid should be close to the Manhattan distance
	// between source and target (each hop advances ~1 grid step).
	sc := convergedGrid(t, 3)
	_, _, hops, _ := sc.Descend(0, space.Point{8, 4}, 4)
	// Manhattan distance from (0,0) to (8,4) is 12; allow some slack for
	// diagonal neighbours and imperfect views.
	if hops > 20 {
		t.Fatalf("descent took %d hops for a 12-step Manhattan path", hops)
	}
}
