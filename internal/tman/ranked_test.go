package tman

import (
	"fmt"
	"slices"
	"testing"

	"polystyrene/internal/core"
	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// TestRankedViewsMergeMatchesSelection: mergeRanked — rank the new tail,
// then one linear merge with the ranked prefix — returns exactly what a
// full selection over the union returns, for random views over positions
// that collide (so distance ties, broken by id, are everywhere), unions
// below and above the cap of viewCap, an empty prefix, no new entries, and
// new entries that all order ahead of the prefix.
func TestRankedViewsMergeMatchesSelection(t *testing.T) {
	const n = 160
	rng := xrand.New(5)
	tor := space.TorusForGrid(4, 3, 1)
	positions := make([]space.Point, n)
	for i := range positions {
		positions[i] = space.Point{float64(rng.Intn(4)), float64(rng.Intn(3))}
	}
	p, err := New(Config{Space: tor, Sampler: rps.New(rps.Config{}),
		Position: func(id sim.NodeID) space.Point { return positions[id] }})
	if err != nil {
		t.Fatal(err)
	}
	scr := p.ws[0]
	ranked := func(ids []int32, target space.Point) []int32 {
		return slices.Clone(p.selectClosest(scr, ids, target, len(ids)))
	}

	for trial := 0; trial < 4000; trial++ {
		target := positions[rng.Intn(n)]
		ids := make([]int32, 0, n)
		for _, i := range rng.Sample(n, 1+rng.Intn(n)) {
			ids = append(ids, int32(i))
		}
		var pre, tail []int32
		switch mode := trial % 4; mode {
		case 0: // random split
			n0 := rng.Intn(len(ids) + 1)
			pre, tail = ranked(ids[:n0], target), ids[n0:]
		case 1: // empty prefix: every entry is new
			tail = ids
		case 2: // no new entries
			pre = ranked(ids, target)
		case 3: // the new entries are the closest ones
			all := ranked(ids, target)
			n0 := rng.Intn(len(all) + 1)
			pre, tail = all[len(all)-n0:], slices.Clone(all[:len(all)-n0])
			rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
		}
		view := append(slices.Clone(pre), tail...)
		want := slices.Clone(p.selectClosest(scr, view, target, min(len(view), viewCap)))
		got := p.mergeRanked(scr, slices.Clone(view), len(pre), target)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (union %d): mergeRanked(prefix %v, new %v) = %v, selection %v",
				trial, len(view), pre, tail, got, want)
		}
	}
}

// TestRankedViewsReseedAndRestoreDropStamps: no position moves here, yet
// two things must unrank views. A view whose entries all crashed is
// re-seeded with random peers, which are not sorted; and a restore does
// not carry stamps over.
func TestRankedViewsReseedAndRestoreDropStamps(t *testing.T) {
	const w, h = 20, 10
	n := newTestNet(t, 3, space.TorusForGrid(w, h, 1), space.TorusGrid(w, h, 1))
	moved := slices.Repeat([]uint64{1}, w*h)
	n.tman.UsePositionClock(func() ([]uint64, uint64) { return moved, 1 })
	n.engine.RunRounds(6)
	if got := checkRankedViews(t, n.engine, n.tman, "converged"); got != w*h {
		t.Fatalf("%d of %d views ranked with no position moving", got, w*h)
	}

	victim := sim.NodeID(0)
	for _, v := range n.tman.View(victim) {
		n.engine.Kill(v)
	}
	n.tman.purgeDead(n.engine.SeqCtx(), victim)
	if n.tman.ViewSize(victim) == 0 || n.tman.ranked(victim) {
		t.Fatalf("re-seeded view %v ranked=%v", n.tman.View(victim), n.tman.ranked(victim))
	}
	checkNeighborForms(t, n.engine, n.tman, "after the re-seed")
	n.engine.RunRounds(1)
	checkRankedViews(t, n.engine, n.tman, "a round after the re-seed")
	checkNeighborForms(t, n.engine, n.tman, "a round after the re-seed")

	var sw snap.Writer
	n.tman.SnapshotState(&sw)
	if err := n.tman.RestoreState(snap.NewReader(sw.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := checkRankedViews(t, n.engine, n.tman, "restored"); got != 0 {
		t.Fatalf("%d views still ranked after a restore", got)
	}
}

// polyNet stacks rps → T-Man → probe → Polystyrene on a torus grid: the
// stack in which core hands T-Man its position table and move clock, so
// positions move. Without Polystyrene (newPlainNet) it is rps → T-Man →
// probe over fixed positions under T-Man's static clock. The probe layer
// runs afterTMan once per round, right after the T-Man pass.
type polyNet struct {
	engine    *sim.Engine
	tman      *Protocol
	poly      *core.Protocol
	points    []space.Point
	afterTMan func()
	probed    int
}

func newPolyNet(t *testing.T, seed uint64, w, h int) *polyNet {
	t.Helper()
	n := &polyNet{points: space.TorusGrid(w, h, 1), probed: -1}
	tor := space.TorusForGrid(w, h, 1)
	sampler := rps.New(rps.Config{})
	var err error
	n.tman, err = New(Config{Space: tor, Sampler: sampler,
		Position: func(id sim.NodeID) space.Point { return n.poly.Position(id) }})
	if err != nil {
		t.Fatal(err)
	}
	n.poly, err = core.New(core.Config{Space: tor, Topology: n.tman, Sampler: sampler, K: 3,
		InitialPoint: func(id sim.NodeID) (space.Point, bool) {
			return n.spot(tor, id), int(id) < len(n.points)
		}})
	if err != nil {
		t.Fatal(err)
	}
	n.engine = sim.New(seed, sampler, n.tman, n, n.poly)
	n.engine.AddNodes(w * h)
	if moved, _ := n.tman.clock(); moved == nil {
		t.Fatal("core.New did not install its position clock on T-Man")
	}
	return n
}

// newPlainNet is newPolyNet without Polystyrene: every node keeps the spot
// it joined at, and T-Man keeps its static clock.
func newPlainNet(t *testing.T, seed uint64, w, h int) *polyNet {
	t.Helper()
	n := &polyNet{points: space.TorusGrid(w, h, 1), probed: -1}
	tor := space.TorusForGrid(w, h, 1)
	sampler := rps.New(rps.Config{})
	var err error
	n.tman, err = New(Config{Space: tor, Sampler: sampler,
		Position: func(id sim.NodeID) space.Point { return n.spot(tor, id) }})
	if err != nil {
		t.Fatal(err)
	}
	n.engine = sim.New(seed, sampler, n.tman, n)
	n.engine.AddNodes(w * h)
	return n
}

// spot is node id's joining position: its grid point, or for later joiners
// (which arrive empty-handed under Polystyrene) a point of the half-step
// grid.
func (n *polyNet) spot(tor space.Torus, id sim.NodeID) space.Point {
	if int(id) < len(n.points) {
		return n.points[id]
	}
	base := n.points[(int(id)-len(n.points))%len(n.points)]
	return tor.Wrap(space.Point{base[0] + 0.5, base[1] + 0.5})
}

// Name, InitNode and Step make polyNet the probe layer.
func (n *polyNet) Name() string                     { return "probe" }
func (n *polyNet) InitNode(*sim.Engine, sim.NodeID) {}
func (n *polyNet) Step(e *sim.Engine, _ sim.NodeID) {
	if n.probed != e.Round() && n.afterTMan != nil {
		n.probed = e.Round()
		n.afterTMan()
	}
}

// checkRankedViews asserts that every view whose stamp is still valid is
// strictly sorted by (distance to its owner, id), and returns how many
// views of live nodes were ranked.
func checkRankedViews(t *testing.T, e *sim.Engine, tm *Protocol, phase string) (live int) {
	t.Helper()
	for i, view := range tm.views {
		id := sim.NodeID(i)
		if !tm.ranked(id) {
			continue
		}
		if e.Alive(id) {
			live++
		}
		target := tm.pos(id)
		for j := 1; j < len(view); j++ {
			a, b := view[j-1], view[j]
			da, db := tm.cfg.Space.Distance(tm.pos(sim.NodeID(a)), target), tm.cfg.Space.Distance(tm.pos(sim.NodeID(b)), target)
			if !(da < db || da == db && a < b) {
				t.Fatalf("%s: ranked view of node %d out of order at %d: %d (%v) before %d (%v)",
					phase, id, j, a, da, b, db)
			}
		}
	}
	return live
}

// TestRankedViewsUnderChurn runs T-Man under Polystyrene, and plain T-Man
// over fixed positions, through a catastrophe (the right half crashes), a
// reinjection of fresh nodes and then 1% churn per round, at exchange
// parallelism 0 and 2. Twice a round — right after the T-Man pass, when
// the views were just ranked, and at the end of the round, when core's
// projections have invalidated most of them on this small torus — it
// checks that ranked views really are sorted and that every neighbour
// query form, prefix reads of ranked views included, equals the
// fresh-slice Neighbors oracle. Halfway through the churn the views are
// restored from a snapshot of themselves, which unranks them all, and the
// next T-Man pass must rank every live one again. Without Polystyrene no
// position moves, so every live view must also be ranked at the end of
// each round.
func TestRankedViewsUnderChurn(t *testing.T) {
	for _, stack := range []struct {
		name string
		net  func(t *testing.T, seed uint64, w, h int) *polyNet
	}{{"polystyrene", newPolyNet}, {"plain", newPlainNet}} {
		for _, workers := range []int{0, 2} {
			runRankedChurn(t, stack.net, fmt.Sprintf("%s w=%d", stack.name, workers), workers)
		}
	}
}

// runRankedChurn is one TestRankedViewsUnderChurn script over a net built
// by newNet.
func runRankedChurn(t *testing.T, newNet func(t *testing.T, seed uint64, w, h int) *polyNet, name string, workers int) {
	const w, h = 16, 8
	n := newNet(t, 41, w, h)
	n.engine.SetExchangeParallelism(workers)
	defer n.engine.Close()
	var phase string
	n.afterTMan = func() {
		at := phase + " after the T-Man pass"
		// Every live node initiated an exchange, which ranks its view,
		// no position moves during the T-Man pass, and on this script
		// no partner's view was re-seeded after its owner's step.
		if got, want := checkRankedViews(t, n.engine, n.tman, at), n.engine.NumLive(); got < want {
			t.Fatalf("%s: only %d of %d live views ranked", at, got, want)
		}
		checkNeighborForms(t, n.engine, n.tman, at)
	}
	rng := xrand.New(77)
	for round := 0; round < 40; round++ {
		phase = fmt.Sprintf("%s round %d", name, round)
		switch {
		case round == 8:
			for i, pt := range n.points {
				if space.RightHalf(pt, w) {
					n.engine.Kill(sim.NodeID(i))
				}
			}
		case round == 18:
			n.engine.AddNodes(w * h / 4)
		case round > 22:
			churn := max(1, n.engine.NumLive()/100)
			for range churn {
				live := n.engine.LiveIDs()
				n.engine.Kill(live[rng.Intn(len(live))])
			}
			n.engine.AddNodes(churn)
		}
		if round == 30 {
			var sw snap.Writer
			n.tman.SnapshotState(&sw)
			if err := n.tman.RestoreState(snap.NewReader(sw.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		n.engine.RunRounds(1)
		got := checkRankedViews(t, n.engine, n.tman, phase)
		if want := n.engine.NumLive(); n.poly == nil && got < want {
			t.Fatalf("%s: only %d of %d live views ranked over fixed positions", phase, got, want)
		}
		checkNeighborForms(t, n.engine, n.tman, phase)
	}
}
