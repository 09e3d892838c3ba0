package core

// Property tests pinning the interned-ID point-set operations to their
// string-Key() predecessors: the ID-keyed union (unionInto), the
// generation-stamped backup delta (pushDelta) and the on-demand guests⁻¹
// table (HoldersOf) must agree with map-of-Key oracles on random point
// multisets and under randomised churn. Together with the byte-identical
// golden trajectories these are the licence for the representation swap.

import (
	"fmt"
	"testing"

	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// oracleProtocol builds a bare Protocol wired to an interner, enough to
// drive the pooled scratch helpers without a full stack.
func oracleProtocol(in *space.Interner) *Protocol {
	p := &Protocol{cfg: Config{Interner: in}}
	p.ws = []*scratch{p.newScratch()}
	return p
}

// randomSubset draws a random (unique, shuffled) subset of the universe,
// as points and lockstep IDs.
func randomSubset(rng *xrand.Rand, universe []space.Point, ids []space.PointID) ([]space.Point, []space.PointID) {
	idx := rng.Sample(len(universe), rng.Intn(len(universe)+1))
	pts := make([]space.Point, len(idx))
	pids := make([]space.PointID, len(idx))
	for i, j := range idx {
		pts[i] = universe[j]
		pids[i] = ids[j]
	}
	return pts, pids
}

func TestUnionIntoMatchesStringKeyOracle(t *testing.T) {
	rng := xrand.New(1234)
	in := space.NewInterner()
	universe := space.TorusGrid(9, 7, 1)
	ids := in.InternAll(universe)
	p := oracleProtocol(in)

	for trial := 0; trial < 300; trial++ {
		aPts, aIDs := randomSubset(rng, universe, ids)
		bPts, bIDs := randomSubset(rng, universe, ids)

		wantPts := mergePoints(clonePoints(aPts), bPts)
		gotPts, gotIDs := p.unionInto(p.ws[0], clonePoints(aPts), append([]space.PointID{}, aIDs...), bPts, bIDs)

		if len(gotPts) != len(wantPts) || len(gotIDs) != len(wantPts) {
			t.Fatalf("trial %d: union size %d/%d, oracle %d", trial, len(gotPts), len(gotIDs), len(wantPts))
		}
		for i := range wantPts {
			if !gotPts[i].Equal(wantPts[i]) {
				t.Fatalf("trial %d: union[%d] = %v, oracle %v (order must match)", trial, i, gotPts[i], wantPts[i])
			}
			if !in.PointOf(gotIDs[i]).Equal(gotPts[i]) {
				t.Fatalf("trial %d: union[%d] ID %d out of lockstep", trial, i, gotIDs[i])
			}
		}
	}
}

func TestPushDeltaMatchesStringKeyOracle(t *testing.T) {
	rng := xrand.New(5678)
	in := space.NewInterner()
	universe := space.TorusGrid(8, 8, 1)
	ids := in.InternAll(universe)
	p := oracleProtocol(in)

	for trial := 0; trial < 300; trial++ {
		curPts, curIDs := randomSubset(rng, universe, ids)
		prevPts, prevIDs := randomSubset(rng, universe, ids)

		// The old string-keyed count: additions then removal tombstones.
		prev := map[string]bool{}
		for _, g := range prevPts {
			prev[g.Key()] = true
		}
		now := map[string]bool{}
		want := 0
		for _, g := range curPts {
			k := g.Key()
			now[k] = true
			if !prev[k] {
				want++
			}
		}
		for k := range prev {
			if !now[k] {
				want++
			}
		}

		mark, gen := p.ws[0].pset.Next(in.Len())
		for _, pid := range curIDs {
			mark[pid] = gen
		}
		if got := pushDelta(mark, gen, len(curIDs), prevIDs); got != want {
			t.Fatalf("trial %d: delta %d, oracle %d (|cur|=%d |prev|=%d)",
				trial, got, want, len(curIDs), len(prevIDs))
		}
	}
}

// oracleHolders rebuilds guests⁻¹ the old way: scan every live node's
// guest set into a map keyed by Point.Key().
func oracleHolders(st *stack) map[string][]sim.NodeID {
	out := map[string][]sim.NodeID{}
	for _, id := range st.engine.LiveIDs() {
		for _, g := range st.poly.Guests(id) {
			out[g.Key()] = append(out[g.Key()], id)
		}
	}
	return out
}

// TestHoldersIndexMatchesFullScanUnderChurn drives the full stack through
// convergence, a catastrophe, random churn and reinjection, sequentially
// and under the batch scheduler; after every round HoldersOf must equal
// the rebuilt guests⁻¹ map, and guest state must stay in lockstep with
// its IDs. Then it fires each event that can outdate the table — a join
// between rounds (paired with a crash, so the live count holds), a Step
// called directly, a RestoreState of an earlier state with the same live
// count — right after a build, and checks the table at once.
func TestHoldersIndexMatchesFullScanUnderChurn(t *testing.T) {
	for _, w := range []int{0, 2} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			st := newStack(t, stackOpts{seed: 321, w: 12, h: 6, cfg: Config{K: 3}})
			st.engine.SetExchangeParallelism(w)
			defer func() { st.engine.Close() }()
			holdersMatchUnderChurn(t, st)
		})
	}
	// Adoption alone: one of two nodes crashes, and the survivor's direct
	// Step adopts its ghosts with no live partner left to migrate with.
	t.Run("adoption", func(t *testing.T) {
		st := newStack(t, stackOpts{seed: 5, w: 2, h: 1, cfg: Config{K: 1}})
		st.engine.RunRounds(3)
		st.engine.Kill(1)
		checkHolders(t, st)
		before := st.poly.NumGuests(0)
		st.poly.Step(st.engine, 0)
		if st.poly.NumGuests(0) <= before {
			t.Fatalf("node 0 hosts %d guests after adopting, %d before", st.poly.NumGuests(0), before)
		}
		checkHolders(t, st)
	})
}

func holdersMatchUnderChurn(t *testing.T, st *stack) {
	rng := xrand.New(999)
	in := st.poly.cfg.Interner

	check := func(when string) {
		t.Helper()
		oracle := oracleHolders(st)
		seen := 0
		for pid := 0; pid < in.Len(); pid++ {
			pt := in.PointOf(space.PointID(pid))
			live := st.poly.HoldersOf(space.PointID(pid))
			for _, id := range live {
				if !st.engine.Alive(id) {
					t.Fatalf("%s: point %v has crashed holder %d", when, pt, id)
				}
			}
			want := oracle[pt.Key()]
			if len(live) != len(want) {
				t.Fatalf("%s: point %v holders %v, oracle %v", when, pt, live, want)
			}
			wantSet := map[sim.NodeID]bool{}
			for _, id := range want {
				wantSet[id] = true
			}
			for _, id := range live {
				if !wantSet[id] {
					t.Fatalf("%s: point %v has spurious holder %d (oracle %v)", when, pt, id, want)
				}
			}
			seen += len(live)
		}
		// Every oracle entry was covered (sizes match per point and the
		// totals agree).
		total := 0
		for _, hs := range oracle {
			total += len(hs)
		}
		if seen != total {
			t.Fatalf("%s: index covers %d holdings, oracle %d", when, seen, total)
		}
		// Lockstep invariant: guests and guestIDs resolve to each other.
		for _, id := range st.engine.LiveIDs() {
			ns := st.poly.nodes[id]
			if len(ns.guests) != len(ns.guestIDs) {
				t.Fatalf("%s: node %d guests/IDs out of lockstep", when, id)
			}
			for i, g := range ns.guests {
				if !in.PointOf(ns.guestIDs[i]).Equal(g) {
					t.Fatalf("%s: node %d guest %d ID mismatch", when, id, i)
				}
			}
		}
	}
	// killHost crashes the lowest live node that hosts a guest.
	killHost := func() {
		t.Helper()
		for _, id := range st.engine.LiveIDs() {
			if st.poly.NumGuests(id) > 0 {
				st.engine.Kill(id)
				return
			}
		}
		t.Fatal("no live node hosts a guest")
	}

	st.engine.RunRounds(5)
	check("converged")
	for i, pt := range st.points {
		if space.RightHalf(pt, 12) {
			st.engine.Kill(sim.NodeID(i))
		}
	}
	for round := 0; round < 25; round++ {
		if round%4 == 0 {
			st.engine.AddNodes(1)
		}
		if rng.Bool(0.3) && st.engine.NumLive() > 20 {
			live := st.engine.LiveIDs()
			st.engine.Kill(live[rng.Intn(len(live))])
		}
		st.engine.RunRounds(1)
		check(fmt.Sprintf("round %d", round))
	}

	// A join: a host crashes and a node joins, so the live count the
	// table was built at holds, and only the join says it is stale.
	check("before the join")
	killHost()
	st.engine.AddNodes(1)
	check("after a crash and a join")

	// Steps called directly, outside any round, after a crash: the
	// crashed host's backup targets adopt its ghosts.
	killHost()
	check("after a crash")
	for _, id := range st.engine.LiveIDs() {
		st.poly.Step(st.engine, id)
		check(fmt.Sprintf("after a direct Step of node %d", id))
	}

	// A restore of an earlier state with the same live count: snapshot
	// right after a crash, let a round adopt the crashed host's ghosts,
	// build the table, then restore.
	killHost()
	var w snap.Writer
	if err := st.engine.SnapshotState(&w); err != nil {
		t.Fatal(err)
	}
	st.engine.RunRounds(1)
	check("after the round past the snapshot")
	if err := st.engine.RestoreState(snap.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	check("after RestoreState")
}
