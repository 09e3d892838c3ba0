package core

// Chaos and property tests: drive the full stack through randomised
// sequences of failures, churn and reinjection, and assert that the
// protocol's core invariants hold at every step. These are the invariants
// the paper's mechanisms are designed to preserve:
//
//   - no duplicate points inside a node's guest set;
//   - |backups| == min(K, live-1) after every round; backups are live,
//     distinct, never self;
//   - a data point with at least one live copy (guest or active-able
//     ghost) is eventually hosted again (conservation under recovery);
//   - positions are always valid points of the data space;
//   - every target of a live origin holds exactly what the origin last
//     pushed (checkReplicaRuns).

import (
	"slices"
	"testing"

	"polystyrene/internal/fd"
	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// checkInvariants asserts the per-node structural invariants.
func checkInvariants(t *testing.T, st *stack) {
	t.Helper()
	live := st.engine.LiveIDs()
	for _, id := range live {
		guests := st.poly.Guests(id)
		seen := map[string]bool{}
		for _, g := range guests {
			k := g.Key()
			if seen[k] {
				t.Fatalf("node %d hosts duplicate point %v", id, g)
			}
			seen[k] = true
			if len(g) != st.space.Dim() {
				t.Fatalf("node %d hosts malformed point %v", id, g)
			}
		}
		if pos := st.poly.Position(id); len(pos) != st.space.Dim() {
			t.Fatalf("node %d has malformed position %v", id, pos)
		}
		backups := st.poly.Backups(id)
		wantBackups := st.poly.cfg.K
		if avail := len(live) - 1; wantBackups > avail {
			wantBackups = avail
		}
		if len(backups) != wantBackups {
			t.Fatalf("node %d has %d backups, want %d", id, len(backups), wantBackups)
		}
		bseen := map[sim.NodeID]bool{id: true}
		for _, b := range backups {
			if bseen[b] {
				t.Fatalf("node %d has duplicate/self backup %d", id, b)
			}
			if !st.engine.Alive(b) {
				t.Fatalf("node %d has dead backup %d", id, b)
			}
			bseen[b] = true
		}
	}
}

func TestChaosRandomChurn(t *testing.T) {
	// Random uncorrelated churn: kill a few random nodes per round and
	// keep checking invariants and point conservation.
	st := newStack(t, stackOpts{seed: 100, w: 16, h: 8, cfg: Config{K: 4}})
	rng := xrand.New(999)
	st.engine.RunRounds(5)
	for round := 0; round < 25; round++ {
		if st.engine.NumLive() > 40 && rng.Bool(0.7) {
			live := st.engine.LiveIDs()
			st.engine.Kill(live[rng.Intn(len(live))])
		}
		st.engine.RunRounds(1)
		checkInvariants(t, st)
	}
	// With K=4 and sequential single-node churn, points virtually never
	// die: each crash leaves 4 live replicas that are re-replicated the
	// very next round.
	if unique := len(st.uniqueActivePoints()); unique < st.w*st.h-2 {
		t.Fatalf("unique points %d of %d after churn", unique, st.w*st.h)
	}
}

func TestChaosRepeatedCatastrophes(t *testing.T) {
	// Two successive regional catastrophes: right half first, then the
	// bottom half of the survivors. The shape must re-form both times.
	st := newStack(t, stackOpts{seed: 101, w: 16, h: 8, cfg: Config{K: 6}})
	st.engine.RunRounds(10)

	for wave, in := range []func(space.Point) bool{
		func(p space.Point) bool { return p[0] >= 8 },
		func(p space.Point) bool { return p[1] >= 4 },
	} {
		for _, id := range st.engine.LiveIDs() {
			if in(st.poly.Position(id)) {
				st.engine.Kill(id)
			}
		}
		st.engine.RunRounds(20)
		checkInvariants(t, st)
		// After each recovery the shape must cover both halves again.
		left, right := 0, 0
		for _, id := range st.engine.LiveIDs() {
			if st.poly.Position(id)[0] >= 8 {
				right++
			} else {
				left++
			}
		}
		if left == 0 || right == 0 {
			t.Fatalf("wave %d: shape not recovered (left=%d right=%d)", wave, left, right)
		}
	}
	if st.engine.NumLive() < 20 {
		t.Fatalf("too few survivors for a meaningful test: %d", st.engine.NumLive())
	}
	// 32 survivors of 128; K=6 replicas dominate losses: most points live.
	if rel := float64(len(st.uniqueActivePoints())) / float64(st.w*st.h); rel < 0.5 {
		t.Fatalf("reliability %v after two catastrophes with K=6", rel)
	}
}

// checkReplicaRuns asserts the replica layout: every live holder's ghost
// runs ascend strictly by origin, none names the holder, and their lengths
// sum to NumGhosts; and every target of a live origin holds a run for it
// equal to the origin's pushed set — the identity that lets one pushed set
// per node price every kept target's delta.
func checkReplicaRuns(t *testing.T, st *stack) {
	t.Helper()
	p := st.poly
	for _, h := range st.engine.LiveIDs() {
		ns := p.nodes[h]
		sum := 0
		for j, r := range ns.ghostRuns {
			if sim.NodeID(r.origin) == h {
				t.Fatalf("node %d holds a ghost run from itself", h)
			}
			if j > 0 && r.origin <= ns.ghostRuns[j-1].origin {
				t.Fatalf("node %d's ghost origins do not strictly ascend: %d after %d", h, r.origin, ns.ghostRuns[j-1].origin)
			}
			sum += int(r.n)
		}
		if got := p.NumGhosts(h); got != sum {
			t.Fatalf("node %d: NumGhosts %d, runs sum to %d", h, got, sum)
		}
	}
	for _, o := range st.engine.LiveIDs() {
		ns := p.nodes[o]
		for _, b := range ns.backups {
			run, ok := p.ghostRun(b, o)
			if !ok || !slices.Equal(run, ns.pushed) {
				t.Fatalf("target %d holds %v (present %v) for origin %d, which pushed %v", b, run, ok, o, ns.pushed)
			}
		}
	}
}

func TestChaosChurnPlusReinjection(t *testing.T) {
	// Mixed workload: converge, crash a region, trickle-inject newcomers
	// while random churn continues. The replica layout is checked after
	// every round, sequentially and under the batch scheduler, with the
	// perfect detector and with one that reports a crash two rounds late:
	// a dead target then stays kept, and backup skips the push to it while
	// the guest set is unchanged. Halfway through the churn the stack is
	// snapshotted and restored into a fresh one, which carries on.
	for _, c := range []struct {
		name  string
		w     int
		delay int // detection delay in rounds; -1 is the perfect detector
	}{{"w0", 0, -1}, {"w2", 2, -1}, {"w0_delayed2", 0, 2}, {"w2_delayed2", 2, 2}} {
		t.Run(c.name, func(t *testing.T) {
			opts := func() stackOpts {
				o := stackOpts{seed: 102, w: 16, h: 8, cfg: Config{K: 4}}
				if c.delay >= 0 {
					o.cfg.Detector = fd.NewDelayed(c.delay)
				}
				return o
			}
			st := newStack(t, opts())
			st.engine.SetExchangeParallelism(c.w)
			defer func() { st.engine.Close() }()
			// Under the delayed detector a target dies unnoticed for two
			// rounds, so the backup invariants (live, K of them) hold only
			// with the perfect one.
			check := func() {
				t.Helper()
				if c.delay < 0 {
					checkInvariants(t, st)
				}
				checkReplicaRuns(t, st)
			}
			rng := xrand.New(4242)
			for range 8 {
				st.engine.RunRounds(1)
				checkReplicaRuns(t, st)
			}
			for i, p := range st.points {
				if space.RightHalf(p, 16) {
					st.engine.Kill(sim.NodeID(i))
				}
			}
			for round := 0; round < 30; round++ {
				if round%3 == 0 {
					st.engine.AddNodes(2) // trickle reinjection
				}
				if rng.Bool(0.3) && st.engine.NumLive() > 40 {
					live := st.engine.LiveIDs()
					st.engine.Kill(live[rng.Intn(len(live))])
				}
				if round == 15 {
					st = restoredStack(t, st, opts())
					st.engine.SetExchangeParallelism(c.w)
					checkReplicaRuns(t, st)
				}
				st.engine.RunRounds(1)
				check()
			}
			// Recovery duplicates are only removed when two holders meet in a
			// migration exchange, so give the system a quiet settling period
			// after the churn stops before asserting full deduplication.
			for range 25 {
				st.engine.RunRounds(1)
				checkReplicaRuns(t, st)
			}
			total := 0
			for _, id := range st.engine.LiveIDs() {
				total += st.poly.NumGuests(id)
			}
			unique := len(st.uniqueActivePoints())
			if total != unique {
				t.Fatalf("duplicates survive mixed churn: %d guests vs %d unique", total, unique)
			}
		})
	}
}

// restoredStack snapshots st's engine, closes it, and restores the
// snapshot into a fresh stack built from o.
func restoredStack(t *testing.T, st *stack, o stackOpts) *stack {
	t.Helper()
	var w snap.Writer
	if err := st.engine.SnapshotState(&w); err != nil {
		t.Fatal(err)
	}
	st.engine.Close()
	fresh := newStack(t, o)
	r := snap.NewReader(w.Bytes())
	if err := fresh.engine.RestoreState(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Err(); err != nil || r.Remaining() != 0 {
		t.Fatalf("restore left %d bytes unread (%v)", r.Remaining(), err)
	}
	return fresh
}

func TestPointConservationProperty(t *testing.T) {
	// Property (randomised): as long as every crash leaves at least one
	// copy of a point (its holder or one of the holder's backups alive),
	// the point is eventually re-hosted. We approximate by killing random
	// *minorities* and verifying total uniqueness never drops below the
	// guaranteed-survivor count computed from ground truth at kill time.
	rng := xrand.New(31337)
	for trial := 0; trial < 3; trial++ {
		st := newStack(t, stackOpts{seed: 200 + uint64(trial), w: 12, h: 6, cfg: Config{K: 3}})
		st.engine.RunRounds(6)

		// Pick a random 25% of nodes to kill simultaneously.
		live := st.engine.LiveIDs()
		kill := map[sim.NodeID]bool{}
		for _, idx := range rng.Sample(len(live), len(live)/4) {
			kill[live[idx]] = true
		}

		// Ground truth: a point survives if a holder or a ghost holder
		// stays alive.
		survivors := map[string]bool{}
		for _, id := range live {
			if !kill[id] {
				for _, g := range st.poly.Guests(id) {
					survivors[g.Key()] = true
				}
				for _, origin := range st.poly.GhostOrigins(id) {
					_ = origin
				}
			}
		}
		// Ghost copies: any live node holding ghosts from anyone keeps
		// those points recoverable.
		for _, id := range live {
			if kill[id] {
				continue
			}
			for _, origin := range st.poly.GhostOrigins(id) {
				for _, g := range ghostPointsOf(st, id, origin) {
					survivors[g.Key()] = true
				}
			}
		}

		for id := range kill {
			st.engine.Kill(id)
		}
		st.engine.RunRounds(10)

		hosted := st.uniqueActivePoints()
		for key := range survivors {
			if !hosted[key] {
				t.Fatalf("trial %d: point with a surviving copy was lost", trial)
			}
		}
	}
}

// ghostPointsOf exposes a node's ghost points from one origin for the
// conservation property test.
func ghostPointsOf(st *stack, id, origin sim.NodeID) []space.Point {
	var out []space.Point
	run, _ := st.poly.ghostRun(id, origin)
	for _, pid := range run {
		out = append(out, st.poly.cfg.Interner.PointOf(pid))
	}
	return out
}

func TestProjectionStaysInShapeNeighborhood(t *testing.T) {
	// Node positions are medoids of hosted grid points, so they must
	// always coincide with some original grid point (projection never
	// invents coordinates).
	st := newStack(t, stackOpts{seed: 103, w: 12, h: 6, cfg: Config{K: 4}})
	valid := map[string]bool{}
	for _, p := range st.points {
		valid[p.Key()] = true
	}
	st.engine.RunRounds(8)
	for i, p := range st.points {
		if space.RightHalf(p, 12) {
			st.engine.Kill(sim.NodeID(i))
		}
	}
	st.engine.RunRounds(12)
	for _, id := range st.engine.LiveIDs() {
		if st.poly.NumGuests(id) == 0 {
			continue
		}
		if !valid[st.poly.Position(id).Key()] {
			t.Fatalf("node %d projected to %v, not an original grid point",
				id, st.poly.Position(id))
		}
	}
}
