package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
	"polystyrene/internal/tman"
	"polystyrene/internal/xrand"
)

// checkPositionTable asserts the position table's invariants: one row of
// Space.Dim() floats per node, Position(id) is exactly that row (a
// capacity-capped view), and a node with guests whose projection is
// clean sits at the medoid of its guests.
func checkPositionTable(t *testing.T, st *stack, phase string) {
	t.Helper()
	dim := st.space.Dim()
	tab := st.poly.PositionTable()
	if n := st.engine.NumNodes(); len(tab) != n*dim {
		t.Fatalf("%s: table holds %d floats for %d nodes of dimension %d", phase, len(tab), n, dim)
	}
	for i, ns := range st.poly.nodes {
		id := sim.NodeID(i)
		pos := st.poly.Position(id)
		if len(pos) != dim || cap(pos) != dim || !pos.Equal(tab[i*dim:(i+1)*dim]) {
			t.Fatalf("%s: node %d Position %v (cap %d) is not its table row %v",
				phase, id, pos, cap(pos), tab[i*dim:(i+1)*dim])
		}
		if len(ns.guests) > 0 && !ns.posDirty {
			if want := space.MedoidPoint(st.space, ns.guests); !pos.Equal(want) {
				t.Fatalf("%s: node %d sits at %v, not at the medoid %v of its guests", phase, id, pos, want)
			}
		}
	}
}

// TestPositionTableConsistency drives a catastrophe → reinjection → churn
// script at worker counts 0 and 2 and checks the table after every round.
func TestPositionTableConsistency(t *testing.T) {
	for _, w := range []int{0, 2} {
		st := newStack(t, stackOpts{seed: 21, cfg: Config{K: 3}})
		st.engine.SetExchangeParallelism(w)
		rng := xrand.New(77)
		checkPositionTable(t, st, "initial")
		for round := 0; round < 36; round++ {
			switch {
			case round == 6:
				for i, p := range st.points {
					if space.RightHalf(p, float64(st.w)) {
						st.engine.Kill(sim.NodeID(i))
					}
				}
			case round == 16:
				st.engine.AddNodes(st.w * st.h / 4)
			case round > 20 && st.engine.NumLive() > 20:
				live := st.engine.LiveIDs()
				st.engine.Kill(live[rng.Intn(len(live))])
			}
			st.engine.RunRounds(1)
			checkPositionTable(t, st, "round")
		}
		st.engine.Close()
	}
}

// TestPositionAccessorsDoNotAllocate pins Position and PositionTable at
// 0 allocs: they are called once per ranking and per candidate.
func TestPositionAccessorsDoNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("AllocsPerRun is unreliable under -race; the race step runs -short")
	}
	st := newStack(t, stackOpts{seed: 22})
	st.engine.RunRounds(3)
	ids := st.engine.LiveIDs()
	sum := 0.0
	if avg := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			sum += st.poly.Position(id)[0]
		}
		sum += st.poly.PositionTable()[0]
	}); avg != 0 {
		t.Fatalf("Position/PositionTable allocate %.1f objects per sweep, want 0", avg)
	}
}

func snapshotBytes(p *Protocol) []byte {
	var w snap.Writer
	p.SnapshotState(&w)
	return w.Bytes()
}

// TestSnapshotRoundTripByteEqual: snapshot → restore (into a fresh
// protocol) → re-snapshot reproduces the bytes, and the restored table
// answers every Position as the original did.
func TestSnapshotRoundTripByteEqual(t *testing.T) {
	src := newStack(t, stackOpts{seed: 23, cfg: Config{K: 3}})
	src.engine.RunRounds(4)
	for i, p := range src.points {
		if space.RightHalf(p, float64(src.w)) {
			src.engine.Kill(sim.NodeID(i))
		}
	}
	src.engine.RunRounds(3)
	src.engine.AddNodes(10)
	src.engine.RunRounds(2)
	want := snapshotBytes(src.poly)

	dst := newStack(t, stackOpts{seed: 99, cfg: Config{K: 3}})
	if err := dst.poly.RestoreState(snap.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(dst.poly); !bytes.Equal(got, want) {
		t.Fatalf("re-snapshot differs: %d bytes vs %d", len(got), len(want))
	}
	if !slices.Equal(dst.poly.PositionTable(), src.poly.PositionTable()) {
		t.Fatal("restored position table differs from the original")
	}
}

// TestRestoreRefusesWrongPositionDimension: the table needs exactly dim
// floats per node, so a snapshot whose node positions have another
// dimension — here a ring's, restored into the torus stack — is refused,
// and the refusal leaves the protocol and its interner untouched.
func TestRestoreRefusesWrongPositionDimension(t *testing.T) {
	const n = 12
	ring := space.NewRing(n)
	sampler := rps.New(rps.Config{})
	var poly1 *Protocol
	tm := tman.MustNew(tman.Config{Space: ring, Sampler: sampler,
		Position: func(id sim.NodeID) space.Point { return poly1.Position(id) }})
	poly1 = MustNew(Config{Space: ring, Topology: tm, Sampler: sampler,
		InitialPoint: func(id sim.NodeID) (space.Point, bool) { return space.Point{float64(id)}, true }})
	e := sim.New(5, sampler, tm, poly1)
	e.AddNodes(n)
	e.RunRounds(2)
	ringSnap := snapshotBytes(poly1)

	st := newStack(t, stackOpts{seed: 24})
	st.engine.RunRounds(3)
	before := snapshotBytes(st.poly)
	table := slices.Clone(st.poly.PositionTable())
	internLen := st.poly.Interner().Len()

	err := st.poly.RestoreState(snap.NewReader(ringSnap))
	if err == nil || !strings.Contains(err.Error(), "dimension 1, space wants 2") {
		t.Fatalf("restore of a 1-D snapshot into a 2-D protocol: err = %v", err)
	}
	if after := snapshotBytes(st.poly); !bytes.Equal(after, before) {
		t.Fatal("refused restore changed the protocol's state")
	}
	if !slices.Equal(st.poly.PositionTable(), table) || st.poly.Interner().Len() != internLen {
		t.Fatal("refused restore changed the position table or the interner")
	}
	// The untouched protocol keeps running.
	st.engine.RunRounds(1)
	checkPositionTable(t, st, "after refused restore")
}
