package core

import (
	"slices"
	"testing"

	"polystyrene/internal/fd"
	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/tman"
)

// stack is a fully wired RPS + T-Man + Polystyrene network over a torus
// grid, the unit-test-scale analogue of the paper's experimental setup.
type stack struct {
	engine  *sim.Engine
	sampler *rps.Protocol
	tman    *tman.Protocol
	poly    *Protocol
	points  []space.Point
	space   space.Torus
	w, h    int
}

type stackOpts struct {
	seed    uint64
	w, h    int
	cfg     Config // Space/TMan/Sampler/InitialPoint filled in by newStack
	tmanCfg tman.Config
	// wrap, when set, returns the layer the engine steps in place of the
	// protocol (a test wrapper around it).
	wrap func(*Protocol) sim.Protocol
}

func newStack(t testing.TB, o stackOpts) *stack {
	t.Helper()
	if o.w == 0 {
		o.w, o.h = 16, 8
	}
	st := &stack{
		points:  space.TorusGrid(o.w, o.h, 1),
		space:   space.TorusForGrid(o.w, o.h, 1),
		sampler: rps.New(rps.Config{}),
		w:       o.w, h: o.h,
	}
	var poly *Protocol
	o.tmanCfg.Space = st.space
	o.tmanCfg.Sampler = st.sampler
	o.tmanCfg.Position = func(id sim.NodeID) space.Point { return poly.Position(id) }
	tm, err := tman.New(o.tmanCfg)
	if err != nil {
		t.Fatal(err)
	}
	st.tman = tm

	o.cfg.Space = st.space
	o.cfg.Topology = tm
	o.cfg.Sampler = st.sampler
	if o.cfg.InitialPoint == nil {
		o.cfg.InitialPoint = func(id sim.NodeID) (space.Point, bool) {
			if int(id) < len(st.points) {
				return st.points[id], true
			}
			// Late joiners beyond the grid arrive empty-handed on a
			// parallel offset grid (the reinjection scenario).
			idx := int(id) - len(st.points)
			base := st.points[idx%len(st.points)]
			return st.space.Wrap(space.Point{base[0] + 0.5, base[1] + 0.5}), false
		}
	}
	poly, err = New(o.cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.poly = poly
	var layer sim.Protocol = poly
	if o.wrap != nil {
		layer = o.wrap(poly)
	}
	st.engine = sim.New(o.seed, st.sampler, tm, layer)
	st.engine.AddNodes(o.w * o.h)
	return st
}

// uniqueActivePoints returns the set of distinct guest point keys over all
// live nodes, iterated zero-copy through GuestsFunc.
func (st *stack) uniqueActivePoints() map[string]bool {
	out := map[string]bool{}
	for _, id := range st.engine.LiveIDs() {
		st.poly.GuestsFunc(id, func(g space.Point, _ space.PointID) {
			out[g.Key()] = true
		})
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestDefaults(t *testing.T) {
	st := newStack(t, stackOpts{seed: 1})
	if st.poly.cfg.K != DefaultK {
		t.Fatalf("defaults not applied: %+v", st.poly.cfg)
	}
	if st.poly.cfg.Split != SplitAdvanced {
		t.Fatal("default split is not advanced")
	}
}

func TestInitialState(t *testing.T) {
	st := newStack(t, stackOpts{seed: 2})
	for _, id := range st.engine.LiveIDs() {
		if n := st.poly.NumGuests(id); n != 1 {
			t.Fatalf("node %d starts with %d guests, want 1", id, n)
		}
		if !st.poly.Position(id).Equal(st.points[id]) {
			t.Fatalf("node %d pos %v, want %v", id, st.poly.Position(id), st.points[id])
		}
		if st.poly.NumGhosts(id) != 0 {
			t.Fatalf("node %d has ghosts before any round", id)
		}
		if len(st.poly.Backups(id)) != 0 {
			t.Fatalf("node %d has backups before any round", id)
		}
	}
}

func TestBackupInvariants(t *testing.T) {
	st := newStack(t, stackOpts{seed: 3, cfg: Config{K: 3}})
	st.engine.RunRounds(5)
	for _, id := range st.engine.LiveIDs() {
		backups := st.poly.Backups(id)
		if len(backups) != 3 {
			t.Fatalf("node %d has %d backups, want 3", id, len(backups))
		}
		seen := map[sim.NodeID]bool{}
		for _, b := range backups {
			if b == id {
				t.Fatalf("node %d backs up to itself", id)
			}
			if seen[b] {
				t.Fatalf("node %d has duplicate backup %d", id, b)
			}
			if !st.engine.Alive(b) {
				t.Fatalf("node %d has dead backup %d", id, b)
			}
			seen[b] = true
			// The backup must hold our ghosts.
			found := false
			for _, origin := range st.poly.GhostOrigins(b) {
				if origin == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("backup %d holds no ghosts from %d", b, id)
			}
		}
	}
}

func TestGhostCountMatchesReplication(t *testing.T) {
	// Once stabilised without failures, the system holds |P|*(K+1) copies:
	// every point once as a guest and K times as a ghost (Sec. IV-B).
	st := newStack(t, stackOpts{seed: 4, cfg: Config{K: 2}})
	st.engine.RunRounds(10)
	guests, ghosts := 0, 0
	for _, id := range st.engine.LiveIDs() {
		guests += st.poly.NumGuests(id)
		ghosts += st.poly.NumGhosts(id)
	}
	n := st.w * st.h
	if guests != n {
		t.Fatalf("total guests %d, want %d", guests, n)
	}
	if ghosts != 2*n {
		t.Fatalf("total ghosts %d, want %d", ghosts, 2*n)
	}
}

func TestNoFailureConservation(t *testing.T) {
	// Without failures, migration must neither lose nor duplicate points.
	st := newStack(t, stackOpts{seed: 5})
	st.engine.RunRounds(15)
	unique := st.uniqueActivePoints()
	if len(unique) != st.w*st.h {
		t.Fatalf("unique active points %d, want %d", len(unique), st.w*st.h)
	}
	total := 0
	for _, id := range st.engine.LiveIDs() {
		total += st.poly.NumGuests(id)
	}
	if total != st.w*st.h {
		t.Fatalf("total guests %d, want %d (duplicates present)", total, st.w*st.h)
	}
}

func TestSingleCrashRecovery(t *testing.T) {
	st := newStack(t, stackOpts{seed: 6, cfg: Config{K: 4}})
	st.engine.RunRounds(5)
	victim := sim.NodeID(10)
	victimPoint := st.points[victim]
	st.engine.Kill(victim)
	st.engine.RunRounds(3)
	// The victim's data point must have been recovered by a ghost holder
	// and be active somewhere.
	if !st.uniqueActivePoints()[victimPoint.Key()] {
		t.Fatal("victim's data point was lost despite K=4 replication")
	}
	// Nobody should keep the victim as a backup target.
	for _, id := range st.engine.LiveIDs() {
		for _, b := range st.poly.Backups(id) {
			if b == victim {
				t.Fatalf("node %d still backs up to dead node", id)
			}
		}
	}
}

func TestDuplicatesFromRecoveryAreCleaned(t *testing.T) {
	// Killing a node reactivates its point at K places at once; migration
	// must deduplicate so the steady-state count returns to one guest copy
	// per point.
	st := newStack(t, stackOpts{seed: 7, cfg: Config{K: 4}})
	st.engine.RunRounds(5)
	st.engine.Kill(20)
	st.engine.RunRounds(20)
	total := 0
	for _, id := range st.engine.LiveIDs() {
		total += st.poly.NumGuests(id)
	}
	unique := len(st.uniqueActivePoints())
	if total != unique {
		t.Fatalf("guests %d vs unique %d: duplicates not cleaned after 20 rounds", total, unique)
	}
}

func TestCatastrophicFailureShapeRecovery(t *testing.T) {
	st := newStack(t, stackOpts{seed: 8, cfg: Config{K: 4}})
	checkHalfCrashRecovery(t, st)
}

// checkHalfCrashRecovery is the headline behaviour at unit-test scale:
// crash half the torus and check that (a) nearly all data points
// survive, (b) survivors migrate so that the right half of the shape is
// populated again, and (c) the average load doubles. The stack must run
// K = 4.
func checkHalfCrashRecovery(t *testing.T, st *stack) {
	t.Helper()
	st.engine.RunRounds(10)
	for i, p := range st.points {
		if space.RightHalf(p, float64(st.w)) {
			st.engine.Kill(sim.NodeID(i))
		}
	}
	st.engine.RunRounds(25)

	n := st.w * st.h
	unique := len(st.uniqueActivePoints())
	// With K=4 and pf=0.5 expected survival is 1-0.5^5 ≈ 96.9%.
	if unique < n*90/100 {
		t.Fatalf("only %d of %d points survived (expect ~96.9%%)", unique, n)
	}
	// Some survivors must now sit (project) in the right half.
	right := 0
	for _, id := range st.engine.LiveIDs() {
		if space.RightHalf(st.poly.Position(id), float64(st.w)) {
			right++
		}
	}
	if right < st.engine.NumLive()/4 {
		t.Fatalf("only %d of %d survivors migrated into the crashed half", right, st.engine.NumLive())
	}
	// Average guests per node approaches points/live ≈ 2.
	total := 0
	for _, id := range st.engine.LiveIDs() {
		total += st.poly.NumGuests(id)
	}
	avg := float64(total) / float64(st.engine.NumLive())
	if avg < 1.5 || avg > 2.5 {
		t.Fatalf("average guests per node = %v, want ~2", avg)
	}
}

func TestReinjectedNodesAcquirePoints(t *testing.T) {
	// Follows the paper's phase structure: reinjection happens after the
	// catastrophe, when survivors hold ~2 points each and migration can
	// hand the surplus to the empty newcomers. (With exactly one point per
	// node and no failure, a pairwise split correctly never moves a point
	// away from the node sitting on it.)
	st := newStack(t, stackOpts{seed: 9, cfg: Config{K: 4}})
	st.engine.RunRounds(10)
	for i, p := range st.points {
		if space.RightHalf(p, float64(st.w)) {
			st.engine.Kill(sim.NodeID(i))
		}
	}
	st.engine.RunRounds(15)
	uniqueBefore := len(st.uniqueActivePoints())

	newcomers := st.engine.AddNodes(st.w * st.h / 2)
	for _, id := range newcomers {
		if st.poly.NumGuests(id) != 0 {
			t.Fatalf("reinjected node %d started with guests", id)
		}
		if st.poly.Position(id) == nil {
			t.Fatalf("reinjected node %d has no position", id)
		}
	}
	st.engine.RunRounds(30)
	withPoints := 0
	for _, id := range newcomers {
		if st.poly.NumGuests(id) > 0 {
			withPoints++
		}
	}
	if withPoints < len(newcomers)/2 {
		t.Fatalf("only %d of %d reinjected nodes acquired data points", withPoints, len(newcomers))
	}
	// Conservation still holds: reinjection loses nothing.
	if unique := len(st.uniqueActivePoints()); unique < uniqueBefore {
		t.Fatalf("unique points fell from %d to %d after reinjection", uniqueBefore, unique)
	}
}

func TestEmptyNodeKeepsPosition(t *testing.T) {
	st := newStack(t, stackOpts{seed: 10})
	id := st.engine.AddNodes(1)[0]
	want := st.poly.Position(id).Clone()
	// project on an empty node must not clear or nil the position.
	st.poly.project(st.engine.SeqCtx(), id)
	if got := st.poly.Position(id); !got.Equal(want) {
		t.Fatalf("empty node position changed: %v -> %v", want, got)
	}
}

func TestPositionIsMedoidOfGuests(t *testing.T) {
	st := newStack(t, stackOpts{seed: 11})
	st.engine.RunRounds(8)
	for _, id := range st.engine.LiveIDs() {
		guests := st.poly.Guests(id)
		if len(guests) == 0 {
			continue
		}
		want := space.MedoidPoint(st.space, guests)
		if !st.poly.Position(id).Equal(want) {
			t.Fatalf("node %d pos %v is not the medoid %v of its guests", id, st.poly.Position(id), want)
		}
	}
}

// TestIncrementalBackupCheaperThanFullCopy pins the incremental-delta
// backup of Algorithm 1 (Sec. III-D): in a converged round, everything
// the layer charges, migrations included, stays below what re-sending
// every guest set in full to every backup would charge for the backups
// alone.
func TestIncrementalBackupCheaperThanFullCopy(t *testing.T) {
	st := newStack(t, stackOpts{seed: 12, cfg: Config{K: 4}})
	st.engine.RunRounds(15)
	deltaCost := st.engine.Meter().RoundCost("polystyrene", 14)
	ptCost := sim.PointCost(st.space.Dim())
	fullCost := 0
	for _, id := range st.engine.LiveIDs() {
		fullCost += len(st.poly.Backups(id)) * st.poly.NumGuests(id) * ptCost
	}
	if deltaCost >= fullCost {
		t.Fatalf("incremental backup cost %d not below full-copy cost %d", deltaCost, fullCost)
	}
}

func TestLossyFailureDetectorStillRecovers(t *testing.T) {
	st := newStack(t, stackOpts{seed: 13, cfg: Config{
		K: 4,
	}})
	st.poly.cfg.Detector = fd.NewProbabilistic(0.3, st.engine.Rand().Split())
	st.engine.RunRounds(5)
	victim := sim.NodeID(5)
	key := st.points[victim].Key()
	st.engine.Kill(victim)
	st.engine.RunRounds(15)
	if !st.uniqueActivePoints()[key] {
		t.Fatal("point lost under a lossy failure detector")
	}
}

func TestDelayedDetectorDelaysRecovery(t *testing.T) {
	st := newStack(t, stackOpts{seed: 14, cfg: Config{K: 4}})
	st.poly.cfg.Detector = fd.NewDelayed(5)
	st.engine.RunRounds(5)
	victim := sim.NodeID(8)
	key := st.points[victim].Key()
	st.engine.Kill(victim)
	st.engine.RunRounds(2)
	if st.uniqueActivePoints()[key] {
		t.Fatal("point recovered before the detector could have reported the crash")
	}
	st.engine.RunRounds(10)
	if !st.uniqueActivePoints()[key] {
		t.Fatal("point never recovered after detection delay elapsed")
	}
}

func TestGuestIterationAPIs(t *testing.T) {
	// Guests (cloning), GuestsFunc (zero-copy callback) and AppendGuests
	// (append-into) must present the same sequence, with GuestsFunc's IDs
	// in lockstep through the interner.
	st := newStack(t, stackOpts{seed: 17, cfg: Config{K: 3}})
	st.engine.RunRounds(5)
	st.engine.Kill(7) // trigger recovery so some nodes host several points
	st.engine.RunRounds(3)
	in := st.poly.cfg.Interner
	var buf []space.Point
	for _, id := range st.engine.LiveIDs() {
		want := st.poly.Guests(id)
		i := 0
		st.poly.GuestsFunc(id, func(g space.Point, pid space.PointID) {
			if i >= len(want) || !g.Equal(want[i]) {
				t.Fatalf("node %d: GuestsFunc[%d] = %v diverges from Guests %v", id, i, g, want)
			}
			if !in.PointOf(pid).Equal(g) {
				t.Fatalf("node %d: GuestsFunc ID %d does not resolve to %v", id, pid, g)
			}
			i++
		})
		if i != len(want) {
			t.Fatalf("node %d: GuestsFunc yielded %d points, Guests %d", id, i, len(want))
		}
		buf = st.poly.AppendGuests(id, buf[:0])
		if len(buf) != len(want) {
			t.Fatalf("node %d: AppendGuests %d points, Guests %d", id, len(buf), len(want))
		}
		for j := range buf {
			if !buf[j].Equal(want[j]) {
				t.Fatalf("node %d: AppendGuests[%d] = %v, want %v", id, j, buf[j], want[j])
			}
		}
		if st.poly.NumGuests(id) != len(want) {
			t.Fatalf("node %d: NumGuests %d, want %d", id, st.poly.NumGuests(id), len(want))
		}
	}
}

// mergePoints returns base extended with every point of extra that is not
// already present (set union by point key). base may be mutated.
//
// This is the string-keyed predecessor of unionInto, kept as the reference
// oracle for the property tests; it must stay semantically aligned with
// adoptGhosts/migrate.
func mergePoints(base []space.Point, extra []space.Point) []space.Point {
	if len(extra) == 0 {
		return base
	}
	seen := make(map[string]bool, len(base)+len(extra))
	for _, b := range base {
		seen[b.Key()] = true
	}
	for _, x := range extra {
		k := x.Key()
		if !seen[k] {
			seen[k] = true
			base = append(base, x)
		}
	}
	return base
}

func TestMergePoints(t *testing.T) {
	a := []space.Point{{1, 1}, {2, 2}}
	b := []space.Point{{2, 2}, {3, 3}}
	got := mergePoints(clonePoints(a), b)
	if len(got) != 3 {
		t.Fatalf("mergePoints length %d, want 3", len(got))
	}
	if got := mergePoints(nil, nil); len(got) != 0 {
		t.Fatalf("mergePoints(nil,nil) = %v", got)
	}
	if got := mergePoints(clonePoints(a), nil); len(got) != 2 {
		t.Fatalf("mergePoints(a,nil) = %v", got)
	}
}

func TestBackupsRestoredAfterBackupCrash(t *testing.T) {
	st := newStack(t, stackOpts{seed: 16, cfg: Config{K: 3}})
	st.engine.RunRounds(5)
	node := sim.NodeID(0)
	victims := st.poly.Backups(node)
	st.engine.KillAll(victims)
	st.engine.RunRounds(2)
	backups := st.poly.Backups(node)
	if len(backups) != 3 {
		t.Fatalf("backups not replenished: %d, want 3", len(backups))
	}
	for _, b := range backups {
		if !st.engine.Alive(b) {
			t.Fatalf("replenished backup %d is dead", b)
		}
	}
}

// Backups and GhostOrigins expose the replication structure to the
// tests; the protocol itself walks its node state directly.

// Backups returns a copy of the node's current backup targets.
func (p *Protocol) Backups(id sim.NodeID) []sim.NodeID {
	return slices.Clone(p.nodes[id].backups)
}

// GhostOrigins returns the origins that have replicated state to id, in
// ascending order.
func (p *Protocol) GhostOrigins(id sim.NodeID) []sim.NodeID {
	st := p.nodes[id]
	out := make([]sim.NodeID, 0, len(st.ghostRuns))
	for _, r := range st.ghostRuns {
		out = append(out, sim.NodeID(r.origin))
	}
	return out
}

// ghostRun returns id's run of ghost IDs from origin, and whether id
// holds one (a run may be empty). The slice aliases the node's state.
func (p *Protocol) ghostRun(id, origin sim.NodeID) ([]space.PointID, bool) {
	st := p.nodes[id]
	off := 0
	for _, r := range st.ghostRuns {
		if sim.NodeID(r.origin) == origin {
			return st.ghostIDs[off : off+int(r.n)], true
		}
		off += int(r.n)
	}
	return nil, false
}
