package core

import (
	"bytes"
	"slices"
	"strconv"
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

// churnRound applies the events of one round of the catastrophe →
// reinjection → churn script: the right half crashes at round 6, a quarter
// of the grid joins empty-handed at round 16, and from round 21 one random
// live node crashes per round.
func churnRound(st *stack, rng *xrand.Rand, round int) {
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
}

// TestPositionTableConsistency drives the churnRound script at worker
// counts 0 and 2 and checks the table after every round.
func TestPositionTableConsistency(t *testing.T) {
	for _, w := range []int{0, 2} {
		st := newStack(t, stackOpts{seed: 21, cfg: Config{K: 3}})
		st.engine.SetExchangeParallelism(w)
		rng := xrand.New(77)
		checkPositionTable(t, st, "initial")
		for round := 0; round < 36; round++ {
			churnRound(st, rng, round)
			st.engine.RunRounds(1)
			checkPositionTable(t, st, "round")
		}
		st.engine.Close()
	}
}

// TestPositionAccessorsDoNotAllocate pins Position, PositionTable and
// PositionClock at 0 allocs: they are called once per ranking, per
// candidate and per ranked-view check.
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
		moved, now := st.poly.PositionClock()
		sum += float64(moved[0] + now)
	}); avg != 0 {
		t.Fatalf("Position/PositionTable/PositionClock allocate %.1f objects per sweep, want 0", avg)
	}
}

// clockState is a copy of the position table and its clock.
type clockState struct {
	pos   []float64
	moved []uint64
	now   uint64
}

func copyClock(p *Protocol) clockState {
	moved, now := p.PositionClock()
	return clockState{slices.Clone(p.pos), slices.Clone(moved), now}
}

// checkClockSince asserts that, since the copy was taken, the clock
// stamped exactly the rows whose bits changed, each with a value newer
// than the copy's clock, and that the table and clock cover every node.
func checkClockSince(t *testing.T, p *Protocol, was clockState, phase string) {
	t.Helper()
	moved, now := p.PositionClock()
	if len(moved)*p.dim != len(p.pos) || len(was.moved) != len(moved) {
		t.Fatalf("%s: clock covers %d rows (was %d), table %d", phase, len(moved), len(was.moved), len(p.pos)/p.dim)
	}
	for id := range moved {
		lo, hi := id*p.dim, (id+1)*p.dim
		changed := !sameBits(was.pos[lo:hi], p.pos[lo:hi])
		stamped := moved[id] != was.moved[id]
		if changed != stamped || stamped && (moved[id] <= was.now || moved[id] > now) {
			t.Fatalf("%s: node %d row %v -> %v, stamp %d -> %d (clock %d -> %d)",
				phase, id, was.pos[lo:hi], p.pos[lo:hi], was.moved[id], moved[id], was.now, now)
		}
	}
}

// clockAudit is the layer the sequential engine steps in place of the
// protocol: it checks the clock around every single step, where each row
// is projected at most once, so "stamped exactly the rows that changed"
// holds per step. (Over a whole sequential round a row can move and move
// back, keeping its bits but not its stamp.)
type clockAudit struct {
	*Protocol
	t *testing.T
}

func (a clockAudit) Step(e *sim.Engine, id sim.NodeID) {
	was := copyClock(a.Protocol)
	a.Protocol.Step(e, id)
	checkClockSince(a.t, a.Protocol, was, "step of node "+strconv.Itoa(int(id)))
}

// TestPositionClockStampsMovedRows drives the churnRound script and checks
// that the move clock stamps exactly the rows whose bits changed: at w=0
// around every step, at w=1 and w=2 over every round (a batched pass
// stamps, on the engine goroutine, the rows that differ from the
// start-of-pass copy, advancing the clock at most once). Joins stamp their
// new rows. The batched clock is a function of the trajectory alone: w=1
// and w=2 yield the same stamps every round.
func TestPositionClockStampsMovedRows(t *testing.T) {
	var batched []clockState
	for _, w := range []int{0, 1, 2} {
		opts := stackOpts{seed: 21, cfg: Config{K: 3}}
		if w == 0 {
			opts.wrap = func(p *Protocol) sim.Protocol { return clockAudit{p, t} }
		}
		st := newStack(t, opts)
		st.engine.SetExchangeParallelism(w)
		rng := xrand.New(77)
		for round := 0; round < 36; round++ {
			phase := "w=" + strconv.Itoa(w) + " round " + strconv.Itoa(round)
			_, before := st.poly.PositionClock()
			n0 := st.engine.NumNodes()
			churnRound(st, rng, round)
			was := copyClock(st.poly)
			for id, m := range was.moved {
				if joined := id >= n0; joined != (m > before) {
					t.Fatalf("%s: node %d (joined %v) stamped %d, clock was %d", phase, id, joined, m, before)
				}
			}
			st.engine.RunRounds(1)
			now := copyClock(st.poly)
			// At w=0 clockAudit checked every step.
			if w > 0 {
				checkClockSince(t, st.poly, was, phase)
				if now.now > was.now+1 {
					t.Fatalf("%s: a batched pass advanced the clock %d -> %d", phase, was.now, now.now)
				}
			}
			if w == 1 {
				batched = append(batched, now)
			} else if w == 2 && (!slices.Equal(now.moved, batched[round].moved) || now.now != batched[round].now) {
				t.Fatalf("%s: clock differs from w=1's", phase)
			}
		}
		st.engine.Close()
	}
}

// TestPositionClockRestoreStampsEveryRow: a restore stamps every row of
// the restored table with one new clock value, newer than any stamp a
// ranking made before the restore can hold.
func TestPositionClockRestoreStampsEveryRow(t *testing.T) {
	src := newStack(t, stackOpts{seed: 25, cfg: Config{K: 3}})
	src.engine.RunRounds(5)
	src.engine.AddNodes(7)
	dst := newStack(t, stackOpts{seed: 26, cfg: Config{K: 3}})
	dst.engine.RunRounds(3)
	_, before := dst.poly.PositionClock()
	if err := dst.poly.RestoreState(snap.NewReader(snapshotBytes(src.poly))); err != nil {
		t.Fatal(err)
	}
	moved, now := dst.poly.PositionClock()
	if now <= before {
		t.Fatalf("restore left the clock at %d (was %d)", now, before)
	}
	if len(moved) != src.engine.NumNodes() {
		t.Fatalf("restored clock covers %d rows, want %d", len(moved), src.engine.NumNodes())
	}
	for id, m := range moved {
		if m != now {
			t.Fatalf("restored row %d stamped %d, want %d", id, m, now)
		}
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
	tm, err := tman.New(tman.Config{Space: ring, Sampler: sampler,
		Position: func(id sim.NodeID) space.Point { return poly1.Position(id) }})
	if err != nil {
		t.Fatal(err)
	}
	poly1, err = New(Config{Space: ring, Topology: tm, Sampler: sampler,
		InitialPoint: func(id sim.NodeID) (space.Point, bool) { return space.Point{float64(id)}, true }})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(5, sampler, tm, poly1)
	e.AddNodes(n)
	e.RunRounds(2)
	ringSnap := snapshotBytes(poly1)

	st := newStack(t, stackOpts{seed: 24})
	st.engine.RunRounds(3)
	before := snapshotBytes(st.poly)
	table := slices.Clone(st.poly.PositionTable())
	internLen := st.poly.cfg.Interner.Len()

	err = st.poly.RestoreState(snap.NewReader(ringSnap))
	if err == nil || !strings.Contains(err.Error(), "dimension 1, space wants 2") {
		t.Fatalf("restore of a 1-D snapshot into a 2-D protocol: err = %v", err)
	}
	if after := snapshotBytes(st.poly); !bytes.Equal(after, before) {
		t.Fatal("refused restore changed the protocol's state")
	}
	if !slices.Equal(st.poly.PositionTable(), table) || st.poly.cfg.Interner.Len() != internLen {
		t.Fatal("refused restore changed the position table or the interner")
	}
	// The untouched protocol keeps running.
	st.engine.RunRounds(1)
	checkPositionTable(t, st, "after refused restore")
}
