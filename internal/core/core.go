// Package core implements Polystyrene, the paper's contribution: a
// shape-preserving add-on layer for decentralized topology construction
// (Sec. III). It decouples nodes from the data points that define the
// target shape, so that when a whole region of the overlay crashes the
// survivors can adopt the orphaned data points and migrate onto them,
// reforming the original shape at a lower sampling density.
//
// The layer combines four epidemic mechanisms, executed after every round
// of the underlying topology-construction protocol (Fig. 4):
//
//   - projection — a node's virtual position, fed to T-Man, is the medoid
//     of the data points it hosts (Sec. III-C);
//   - backup — every node replicates its guest points onto K random nodes,
//     where they are stored as inactive ghosts (Algorithm 1, Sec. III-D);
//   - recovery — when a ghost's origin is detected as failed, the ghost
//     points are reactivated into the local guest set (Algorithm 2);
//   - migration — neighbouring nodes repeatedly merge and re-split their
//     guest sets (Algorithm 3), a pair-wise decentralized k-means that
//     re-balances points across nodes and removes duplicates (Sec. III-F).
//
// # Interned point identities
//
// Data points form a fixed, generator-produced universe (the shape is the
// point set, Sec. III-A), so every point is interned into a space.Interner
// exactly once — when a seed node first hosts it — and all point-set state
// carries dense space.PointID identities: guest sets are (Point, PointID)
// pairs in lockstep, while replicas — each holder's ghost runs and each
// origin's pushed set — are PointIDs alone, resolved to points through the
// interner only when a ghost is adopted. Set operations on the hot path
// (the migration union, the incremental backup delta, ghost adoption) run
// on generation-stamped ID arrays and pooled scratch buffers instead of
// string-keyed maps. The evaluation metrics read guests⁻¹ (PointID → the
// live nodes hosting it) through HoldersOf, in O(holders) per point, from
// a table the layer rebuilds on demand rather than maintains per step.
//
// Invariants (see space.Interner): only canonical points enter the layer —
// Config.InitialPoint must return canonical (e.g. torus-wrapped)
// coordinates — every hosted point is interned before use, and points are
// immutable once published. IDs are private to one Protocol's interner;
// share Config.Interner when the harness must resolve the same IDs.
//
// # Position table
//
// Node positions live in one flat []float64 indexed by NodeID with stride
// Space.Dim(): InitNode, projection and RestoreState write rows, and
// Position returns allocation-free row views. New hands the table to the
// overlay below through PositionTableUser, so T-Man ranks candidates
// straight off its rows (space.RowDistances) rather than through one
// function call and one separately allocated point per candidate. Beside
// the table, a per-node move clock (PositionClock, handed over through
// PositionClockUser) records when each row last changed, which lets T-Man
// keep its views ranked across rounds and re-rank only after a position
// moved.
//
// # Batched execution
//
// A Polystyrene step's conflict set is {initiator} ∪ {current backup
// targets after the top-up} ∪ {migration partner}: those are the only
// nodes whose layer state the step reads or writes, which lets the engine
// batch disjoint steps concurrently (sim.Batched). The neighbour-window
// rankings read the *positions* of arbitrary overlay candidates, so the
// layer copies the position table at the start of its batched pass
// (Position and PositionTable serve the copy while the pass runs) to make
// rankings independent of concurrent projections. The guests⁻¹ table is
// keyed by PointID, which no conflict set covers, so batched steps leave
// it alone: EndBatchedRound marks it stale, on the engine goroutine, and
// the next HoldersOf rebuilds it. Pooled scratch lives in
// per-worker slots — slot 0 is the sequential engine's — and the batch
// matcher mirrors the step's peer/target selection on a dedicated plan
// scratch without mutating anything.
package core

import (
	"fmt"
	"math"
	"slices"

	"polystyrene/internal/fd"
	"polystyrene/internal/genset"
	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// Topology is the view Polystyrene needs of the topology-construction
// layer below it: the ability to enumerate a node's k closest overlay
// neighbours. The paper presents Polystyrene as "an add-on layer that can
// be plugged into any decentralized topology construction algorithm"
// (Sec. II-C), and this interface is all the layer requires of a host.
// T-Man, the paper's host, implements it together with every optional
// extension below; the package tests run the layer over a bare host that
// implements Topology alone.
//
// The overlay is queried constantly — backup placement (Sec. III-D), the
// migration candidate window (Sec. III-F) and every per-round metric ask
// "who are node n's k closest peers" — so the contract is allocation-free
// in both of its forms:
//
//   - AppendNeighbors appends the up-to-k closest neighbours of id to dst,
//     ordered by increasing distance, and returns the extended slice. The
//     caller owns (and typically pools) the buffer; implementations run
//     their selection on internal scratch and must not retain dst.
//   - EachNeighbor visits the same sequence without materialising it,
//     calling yield in increasing distance order and stopping early when
//     yield returns false. Implementations may iterate over internal
//     scratch, so yield must not call back into the topology; reading
//     positions or liveness from other layers is fine.
//
// Both forms must agree exactly (same neighbours, same order) for a given
// overlay state, and implementations are expected to answer out-of-range
// ids and k <= 0 as empty queries.
type Topology interface {
	AppendNeighbors(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID
	EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool)
}

// WorkerTopology is the extension of Topology this layer requires to run
// under the engine's batch scheduler: AppendNeighbors variants whose
// selection scratch is owned by an explicit worker slot (so concurrent
// batched Polystyrene steps can query the overlay without sharing
// buffers) or by the matcher's plan mirror. T-Man implements it; a
// Topology without it, such as the tests' bare host, keeps the layer on
// the sequential path at every exchange parallelism (Batchable returns
// false).
type WorkerTopology interface {
	Topology
	// AppendNeighborsW is AppendNeighbors over worker slot w's scratch.
	AppendNeighborsW(w int, dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID
	// AppendNeighborsPlan is AppendNeighbors over the provider's plan
	// scratch (single-threaded, used between batches).
	AppendNeighborsPlan(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID
	// EnsureWorkers sizes the provider's worker-slot table; called
	// single-threaded before any worker starts.
	EnsureWorkers(n int)
}

// PositionTableUser is the optional Topology extension through which this
// layer hands its position table (see PositionTable) to the overlay below,
// so the overlay ranks candidates over flat rows with space.RowDistances
// instead of resolving one position per candidate through a function. New
// offers it once, with p.PositionTable: the overlay calls it once per
// ranking, which yields the snapshot during the layer's batched pass and
// the live table otherwise. An overlay that accepts it must rank by this
// layer's positions — which is what stacking the layer on it means (the
// projection loop of Fig. 3). T-Man implements it; a host without it
// ranks by positions of its own.
type PositionTableUser interface {
	UsePositionTable(table func() []float64)
}

// PositionClockUser is the optional Topology extension through which this
// layer tells the overlay below which positions moved, so a ranking the
// overlay made earlier can be reused while none of its rows has moved
// since. New offers it once, with p.PositionClock, beside the position
// table; the overlay calls it once per validity check. T-Man implements it.
type PositionClockUser interface {
	UsePositionClock(clock func() (moved []uint64, now uint64))
}

// Defaults from the paper's experimental setting (Sec. IV-A).
const (
	// DefaultK is the replication factor (the paper evaluates 2, 4 and 8;
	// 4 is the middle setting used for the illustrative figures).
	DefaultK = 4
	// psi is ψ, the size of the neighbour window the migration partner is
	// drawn from (Algorithm 3, line 1).
	psi = 5
)

// Config parameterises the Polystyrene layer. Space, Topology and Sampler are
// required. InitialPoint decides the data point a joining node starts
// with; when it returns seed=false the node joins empty-handed but with an
// initialised position (the paper's reinjection scenario, Sec. IV-A).
type Config struct {
	// Space is the metric data space.
	Space space.Space
	// Topology is the topology-construction layer below: T-Man in the
	// scenario stack, a bare Topology-only host in this package's tests.
	// A host that does not also implement WorkerTopology keeps the layer
	// sequential.
	Topology Topology
	// Sampler is the peer-sampling layer, used for random backup targets
	// and the random migration candidate.
	Sampler *rps.Protocol
	// Detector is the failure detector; nil means fd.Perfect.
	Detector fd.Detector
	// InitialPoint returns the original position of a joining node and
	// whether that position is a data point the node should host (seed).
	// Returned points must be canonical (see the package doc): they are
	// interned as the node's identity in the data universe.
	InitialPoint func(id sim.NodeID) (pos space.Point, seed bool)
	// Interner maps canonical data points to dense PointIDs. Optional:
	// when nil the protocol creates a private interner. Supply a shared
	// one when the harness needs to resolve the layer's PointIDs too
	// (e.g. the indexed evaluation metrics).
	Interner *space.Interner
	// K is the replication factor (copies per data point).
	K int
	// Split selects the migration split strategy; zero means SplitAdvanced.
	Split SplitKind
}

func (c Config) withDefaults() (Config, error) {
	if c.Space == nil {
		return c, fmt.Errorf("core: Config.Space is required")
	}
	if c.Topology == nil {
		return c, fmt.Errorf("core: Config.Topology is required")
	}
	if c.Sampler == nil {
		return c, fmt.Errorf("core: Config.Sampler is required")
	}
	if c.InitialPoint == nil {
		return c, fmt.Errorf("core: Config.InitialPoint is required")
	}
	if c.Detector == nil {
		c.Detector = fd.Perfect{}
	}
	if c.Interner == nil {
		c.Interner = space.NewInterner()
	}
	if c.K <= 0 {
		c.K = DefaultK
	}
	if c.Split == 0 {
		c.Split = SplitAdvanced
	}
	return c, nil
}

// ghostRun is one origin's inactive replica at its holder: the origin and
// the length of its run of IDs in the holder's ghostIDs. A holder's runs
// sort by origin, and a run of length zero is kept — it is an origin that
// pushed an empty guest set, which recover still asks the detector about.
// Both fields are int32: node ids stay below 2³¹, the limit T-Man's
// int32 rows already set.
type ghostRun struct {
	origin int32
	n      int32
}

// nodeState is the per-node state of Table I in the paper.
type nodeState struct {
	// guests are the data points this node currently hosts (primary
	// copies), unique within the slice; guestIDs carries their interned
	// identities in lockstep.
	guests   []space.Point
	guestIDs []space.PointID
	// posDirty records that the guest set changed since the node's
	// position (its row of Protocol.pos) was last projected, so the O(g²)
	// medoid scan only reruns on transitions (steady-state migrations that
	// hand every point back skip it).
	posDirty bool
	// ghostRuns and ghostIDs are the inactive copies other nodes pushed
	// here: ghostIDs concatenates one run of PointIDs per origin, in
	// ghostRuns' ascending origin order, each run in its origin's push
	// order. Ghosts carry IDs only; adoption resolves their points through
	// the interner.
	ghostRuns []ghostRun
	ghostIDs  []space.PointID
	// backups lists the nodes this node replicates its guests to, and
	// pushed is the guest ID set it last pushed. Every push goes to every
	// current target, so each target kept from an earlier step holds
	// exactly pushed, which prices the incremental delta of Algorithm 1
	// (Sec. III-D); a target picked in this step holds nothing yet.
	backups []sim.NodeID
	pushed  []space.PointID
}

// scratch is one worker slot's pooled step state. pset/nset are
// generation-stamped membership sets over dense PointIDs and NodeIDs
// respectively; mergedPts/IDs is the migration union buffer; failedBuf
// backs recover's sorted origin list; nbrBuf backs the neighbour and
// random-peer queries of migration and backup placement; splitter is the
// slot's migration splitter (batched steps point its Rng at the step
// stream).
type scratch struct {
	pset      genset.Set
	nset      genset.Set
	mergedPts []space.Point
	mergedIDs []space.PointID
	failedBuf []sim.NodeID
	nbrBuf    []sim.NodeID
	splitter  Splitter
}

// Protocol is the Polystyrene layer. It implements sim.Protocol and
// sim.Batched, and must be stacked above its Config.Topology layer in the
// engine.
type Protocol struct {
	cfg      Config
	splitter Splitter
	nodes    []*nodeState
	// wtopo is cfg.Topology's worker-slot extension, nil when the
	// provider does not offer one (which keeps the layer sequential).
	wtopo WorkerTopology

	// eng is the engine the layer's nodes live in, recorded by InitNode:
	// HoldersOf reads liveness from it.
	eng *sim.Engine
	// holders is the guests⁻¹ table HoldersOf answers from.
	holders holderTable

	// ws holds one scratch per worker slot; slot 0 is the sequential
	// engine's. plan backs the matcher's selection mirrors.
	ws []*scratch

	plan struct {
		nset genset.Set
		cand []sim.NodeID
		nbr  []sim.NodeID
	}

	// pos is the position table: node id's virtual position — the medoid
	// of its guests, or the last known position when it has none — is the
	// row pos[id*dim : (id+1)*dim]. posSnap is its start-of-pass copy,
	// which snapOn makes Position and PositionTable serve during a batched
	// pass (see the package comment).
	dim     int
	pos     []float64
	posSnap []float64
	snapOn  bool
	// moved[id] is the value clock took when node id's row last changed
	// bits; see PositionClock.
	moved []uint64
	clock uint64
}

var _ sim.Protocol = (*Protocol)(nil)
var _ sim.Batched = (*Protocol)(nil)

// New returns a Polystyrene layer with the given configuration.
func New(cfg Config) (*Protocol, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Protocol{
		cfg:      cfg,
		splitter: Splitter{Kind: cfg.Split, Space: cfg.Space},
		dim:      cfg.Space.Dim(),
	}
	p.wtopo, _ = cfg.Topology.(WorkerTopology)
	if u, ok := cfg.Topology.(PositionTableUser); ok {
		u.UsePositionTable(p.PositionTable)
	}
	if u, ok := cfg.Topology.(PositionClockUser); ok {
		u.UsePositionClock(p.PositionClock)
	}
	p.ws = []*scratch{p.newScratch()}
	return p, nil
}

func (p *Protocol) newScratch() *scratch {
	return &scratch{splitter: Splitter{Kind: p.cfg.Split, Space: p.cfg.Space}}
}

func (p *Protocol) ensureWorkers(n int) {
	for len(p.ws) < n {
		p.ws = append(p.ws, p.newScratch())
	}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "polystyrene" }

// InitNode implements sim.Protocol.
func (p *Protocol) InitNode(e *sim.Engine, id sim.NodeID) {
	if p.splitter.Rng == nil {
		p.splitter.Rng = e.Rand().Split()
	}
	p.eng = e
	p.holders.stale = true
	for len(p.nodes) <= int(id) {
		p.nodes = append(p.nodes, nil)
	}
	pos, seed := p.cfg.InitialPoint(id)
	if len(pos) != p.dim {
		panic(fmt.Sprintf("core: InitialPoint(%d) = %v has dimension %d, space wants %d", id, pos, len(pos), p.dim))
	}
	if need := (int(id) + 1) * p.dim; len(p.pos) < need {
		p.pos = append(p.pos, make([]float64, need-len(p.pos))...)
	}
	copy(p.row(id), pos)
	for len(p.moved) <= int(id) {
		p.moved = append(p.moved, 0)
	}
	p.clock++
	p.moved[id] = p.clock
	st := &nodeState{}
	if seed {
		pt := pos.Clone()
		pid := p.cfg.Interner.Intern(pt)
		st.guests = []space.Point{pt}
		st.guestIDs = []space.PointID{pid}
	}
	p.nodes[id] = st
}

// Step implements sim.Protocol: recovery, backup maintenance, migration
// and projection for one node (paper Fig. 4, steps 2-4; projection is
// step 1 of the *next* T-Man round).
func (p *Protocol) Step(e *sim.Engine, id sim.NodeID) {
	p.StepW(e.SeqCtx(), id)
}

// StepW implements sim.Batched: the full per-node step under an explicit
// step context (the sequential Step routes through it byte-identically,
// with scratch slot 0).
func (p *Protocol) StepW(ctx *sim.StepCtx, id sim.NodeID) {
	scr := p.ws[ctx.Worker()]
	p.recover(ctx, scr, id)
	p.backup(ctx, scr, id)
	p.migrate(ctx, scr, id)
	p.project(ctx, id)
}

// guestsChanged records that st's guest set changed: its position must be
// projected again, and a sequential step marks the guests⁻¹ table stale.
// A batched step writes nothing shared; EndBatchedRound marks the table
// stale for the whole pass.
func (p *Protocol) guestsChanged(ctx *sim.StepCtx, st *nodeState) {
	st.posDirty = true
	if !ctx.Batched() {
		p.holders.stale = true
	}
}

// --- Recovery (Algorithm 2) ---

// recover reactivates ghost points whose origin node has been detected as
// failed, merging them into the local guest set.
func (p *Protocol) recover(ctx *sim.StepCtx, scr *scratch, id sim.NodeID) {
	e := ctx.Engine()
	st := p.nodes[id]
	if len(st.ghostRuns) == 0 {
		return
	}
	// Consult the detector for every origin first, in the runs' ascending
	// origin order, and only then adopt: both the merge order (guest-slice
	// order, hence medoid tie-breaks) and the detector's query order (a
	// probabilistic detector consumes a random stream per query) are part
	// of the trajectory.
	failed := scr.failedBuf[:0]
	for _, r := range st.ghostRuns {
		if o := sim.NodeID(r.origin); p.cfg.Detector.Failed(e, id, o) {
			failed = append(failed, o)
		}
	}
	scr.failedBuf = failed
	if len(failed) == 0 {
		return
	}
	// Adopt the failed origins' runs and compact the rest down over them.
	// A kept run only ever moves towards the front, onto IDs already read.
	runs, ids := st.ghostRuns, st.ghostIDs
	keptRuns, keptIDs, off := 0, 0, 0
	for _, r := range runs {
		run := ids[off : off+int(r.n)]
		off += int(r.n)
		if len(failed) > 0 && sim.NodeID(r.origin) == failed[0] {
			failed = failed[1:]
			p.adoptGhosts(ctx, scr, st, run)
			continue
		}
		runs[keptRuns] = r
		keptRuns++
		keptIDs += copy(ids[keptIDs:], run)
	}
	st.ghostRuns, st.ghostIDs = runs[:keptRuns], ids[:keptIDs]
}

// adoptGhosts merges a failed origin's ghost run into st's guests,
// skipping points already hosted (set union by interned ID, novel points
// appended in run order and resolved through the interner).
func (p *Protocol) adoptGhosts(ctx *sim.StepCtx, scr *scratch, st *nodeState, run []space.PointID) {
	in := p.cfg.Interner
	mark, gen := scr.pset.Next(in.Len())
	for _, pid := range st.guestIDs {
		mark[pid] = gen
	}
	before := len(st.guestIDs)
	for _, pid := range run {
		if mark[pid] != gen {
			mark[pid] = gen
			st.guests = append(st.guests, in.PointOf(pid))
			st.guestIDs = append(st.guestIDs, pid)
		}
	}
	if len(st.guestIDs) > before {
		p.guestsChanged(ctx, st)
	}
}

// unionInto appends to (dstPts, dstIDs) every point of (srcPts, srcIDs)
// whose ID is not already present — the ID-keyed set union behind the
// migration merge, equivalent to the string-keyed mergePoints test oracle
// but touching only the pooled generation stamps.
// Existing dst order is preserved and novel points append in src order.
func (p *Protocol) unionInto(scr *scratch, dstPts []space.Point, dstIDs []space.PointID, srcPts []space.Point, srcIDs []space.PointID) ([]space.Point, []space.PointID) {
	mark, gen := scr.pset.Next(p.cfg.Interner.Len())
	for _, pid := range dstIDs {
		mark[pid] = gen
	}
	for i, pid := range srcIDs {
		if mark[pid] != gen {
			mark[pid] = gen
			dstPts = append(dstPts, srcPts[i])
			dstIDs = append(dstIDs, pid)
		}
	}
	return dstPts, dstIDs
}

// --- Backup (Algorithm 1) ---

// backup prunes failed backup targets, tops the set back up to K random
// nodes, and pushes the current guest set to every target. A target kept
// from an earlier step already holds exactly the last push (pushed), so
// when the guest IDs equal pushed, in the same order, the push to it would
// write the run it holds and is skipped; a freshly picked target always
// receives the set. Skipped or not, every target is touched and the
// charge is Algorithm 1's incremental delta.
func (p *Protocol) backup(ctx *sim.StepCtx, scr *scratch, id sim.NodeID) {
	e := ctx.Engine()
	st := p.nodes[id]

	// backups ← backups \ failed (line 1).
	kept := st.backups[:0]
	for _, b := range st.backups {
		if !p.cfg.Detector.Failed(e, id, b) {
			kept = append(kept, b)
		}
	}
	st.backups = kept
	nKept := len(kept)

	// backups ← backups ∪ {(K − |backups|) random nodes} (line 2).
	if missing := p.cfg.K - len(st.backups); missing > 0 {
		p.pickBackupTargets(ctx, scr, id, missing)
	}

	// Push guests to every backup (lines 3-4). The stored ghosts are a
	// full replacement; the *charged* traffic is the incremental delta
	// (Sec. III-D optimisation).
	if len(st.backups) == 0 {
		return
	}
	// A kept target holds exactly the last push, so one generation pass
	// marks the current guest set and one delta prices every kept target;
	// a freshly picked target holds nothing and receives the whole set.
	mark, gen := scr.pset.Next(p.cfg.Interner.Len())
	for _, pid := range st.guestIDs {
		mark[pid] = gen
	}
	delta := pushDelta(mark, gen, len(st.guestIDs), st.pushed)
	unchanged := slices.Equal(st.guestIDs, st.pushed)
	for i, b := range st.backups {
		ctx.Touch(b)
		if i >= nKept || !unchanged {
			p.pushGhosts(id, b, st.guestIDs)
		}
	}
	st.pushed = append(st.pushed[:0], st.guestIDs...)
	fresh := len(st.backups) - nKept
	ctx.Charge((nKept*delta + fresh*len(st.guestIDs)) * sim.PointCost(p.cfg.Space.Dim()))
}

// pushDelta returns the incremental backup traffic of Algorithm 1
// (Sec. III-D): points added since the last push plus removal tombstones,
// i.e. |cur| + |prev| − 2·|cur ∩ prev|. The current guest set must already
// be stamped with gen in mark; prev is the previously-pushed ID set. It
// equals the string-keyed two-map count it replaced (see the oracle
// property test).
func pushDelta(mark []uint32, gen uint32, curLen int, prev []space.PointID) int {
	common := 0
	for _, pid := range prev {
		if mark[pid] == gen {
			common++
		}
	}
	return curLen + len(prev) - 2*common
}

// pushGhosts replaces origin id's ghost run at target b with ids, or
// inserts the run at its place in b's origin order. The run is a copy, so
// later guest-set mutations at the origin never disturb a stored ghost. In
// steady state the run keeps its length and is overwritten in place.
func (p *Protocol) pushGhosts(id, b sim.NodeID, ids []space.PointID) {
	tgt := p.nodes[b]
	runs := tgt.ghostRuns
	i, off := 0, 0
	for ; i < len(runs) && sim.NodeID(runs[i].origin) < id; i++ {
		off += int(runs[i].n)
	}
	if i < len(runs) && sim.NodeID(runs[i].origin) == id {
		tgt.ghostIDs = slices.Replace(tgt.ghostIDs, off, off+int(runs[i].n), ids...)
		runs[i].n = int32(len(ids))
		return
	}
	tgt.ghostRuns = slices.Insert(runs, i, ghostRun{origin: int32(id), n: int32(len(ids))})
	tgt.ghostIDs = slices.Insert(tgt.ghostIDs, off, ids...)
}

// pickBackupTargets appends up to n fresh backup nodes to id's target list,
// drawn at random through the peer-sampling layer (Sec. III-D: random
// placement survives spatially correlated failures), excluding self and
// current targets via the pooled node-generation set. The candidate draw
// appends into the slot's pooled buffer, so the top-up allocates nothing.
func (p *Protocol) pickBackupTargets(ctx *sim.StepCtx, scr *scratch, id sim.NodeID, n int) {
	e := ctx.Engine()
	st := p.nodes[id]
	exclude, gen := scr.nset.Next(e.NumNodes())
	exclude[id] = gen
	for _, b := range st.backups {
		exclude[b] = gen
	}

	candidates := p.cfg.Sampler.AppendRandomPeersW(ctx, scr.nbrBuf[:0], id, n+len(st.backups)+1)
	scr.nbrBuf = candidates

	added := 0
	for _, c := range candidates {
		if added == n {
			return
		}
		if exclude[c] != gen && e.Alive(c) {
			exclude[c] = gen
			st.backups = append(st.backups, c)
			added++
		}
	}
	// The sampling view may be too small right after a catastrophe; fall
	// back to uniform draws over the whole live system.
	for tries := 0; added < n && tries < 20*n; tries++ {
		c := ctx.RandomLive()
		if c != sim.None && exclude[c] != gen {
			exclude[c] = gen
			st.backups = append(st.backups, c)
			added++
		}
	}
}

// topoAppendNeighbors routes an overlay query at the right scratch slot:
// batched steps query the WorkerTopology on their own worker slot,
// sequential ones use the provider's default (slot 0).
func (p *Protocol) topoAppendNeighbors(ctx *sim.StepCtx, dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	if ctx.Batched() {
		return p.wtopo.AppendNeighborsW(ctx.Worker(), dst, id, k)
	}
	return p.cfg.Topology.AppendNeighbors(dst, id, k)
}

// --- Migration (Algorithm 3) ---

// migrate performs the pair-wise pull-push exchange of guest points with a
// partner drawn from the ψ closest T-Man neighbours plus one random peer.
// The candidate window lands in pooled scratch, so the ψ-scan performs
// no allocations.
func (p *Protocol) migrate(ctx *sim.StepCtx, scr *scratch, id sim.NodeID) {
	e := ctx.Engine()
	candidates := p.topoAppendNeighbors(ctx, scr.nbrBuf[:0], id, psi)
	scr.nbrBuf = candidates
	if r := p.cfg.Sampler.RandomPeerW(ctx, id); r != sim.None && r != id {
		dup := false
		for _, c := range candidates {
			if c == r {
				dup = true
				break
			}
		}
		if !dup {
			candidates = append(candidates, r)
			scr.nbrBuf = candidates
		}
	}
	// Neighbours can be stale for one round after a crash event.
	live := candidates[:0]
	for _, c := range candidates {
		if e.Alive(c) {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		return
	}
	q := live[ctx.Rand().Intn(len(live))]
	ctx.Touch(q)

	pst, qst := p.nodes[id], p.nodes[q]
	// all_points ← p.guests ∪ q.guests (line 4). The union removes
	// duplicate copies, which is how redundant points created by eager
	// re-replication after a failure get cleaned up (Sec. IV-B). It is an
	// ID-keyed union into pooled scratch — p's points first, then q's
	// novel ones, preserving the merge order the split tie-breaks see.
	mp := append(scr.mergedPts[:0], pst.guests...)
	mi := append(scr.mergedIDs[:0], pst.guestIDs...)
	mp, mi = p.unionInto(scr, mp, mi, qst.guests, qst.guestIDs)
	scr.mergedPts, scr.mergedIDs = mp, mi

	// Sequential steps keep the protocol's persistent splitter (and its
	// long-lived sampling stream); batched steps use the slot's splitter
	// fed by the step stream, so diameter sampling is scheduling-proof.
	sp := &p.splitter
	if ctx.Batched() {
		sp = &scr.splitter
		sp.Rng = ctx.Rand()
	}
	toP, toQ, idsP, idsQ := sp.Split(mp, mi, p.row(id), p.row(q))
	ptCost := sim.PointCost(p.cfg.Space.Dim())
	// Pull: q ships its guests to p; push: p ships q's new set back.
	ctx.Charge((len(qst.guests) + len(toQ)) * ptCost)

	p.setGuests(ctx, pst, toP, idsP)
	p.setGuests(ctx, qst, toQ, idsQ)
	p.project(ctx, q) // q's position moves with its new guest set
}

// setGuests replaces st's guest set with a split result (whose slices
// alias splitter scratch). An unchanged set — the steady-state common
// case, where migration hands every point back to its holder — costs a
// single ID-slice comparison and leaves the cached medoid valid.
func (p *Protocol) setGuests(ctx *sim.StepCtx, st *nodeState, pts []space.Point, ids []space.PointID) {
	if slices.Equal(st.guestIDs, ids) {
		return
	}
	st.guests = append(st.guests[:0], pts...)
	st.guestIDs = append(st.guestIDs[:0], ids...)
	p.guestsChanged(ctx, st)
}

// --- Projection (Sec. III-C) ---

// project recomputes the node's virtual position as the medoid of its
// guests, if the guest set changed since the last projection. A node with
// no guests keeps its previous position, which is how freshly reinjected
// (empty) nodes remain addressable until migration hands them points.
// A sequential projection that changes the row's bits advances the
// position clock; a batched one only writes the row, and EndBatchedRound
// stamps what moved, on the engine goroutine.
func (p *Protocol) project(ctx *sim.StepCtx, id sim.NodeID) {
	st := p.nodes[id]
	if len(st.guests) == 0 || !st.posDirty {
		return
	}
	row, medoid := p.row(id), space.MedoidPoint(p.cfg.Space, st.guests)
	if !ctx.Batched() && !sameBits(row, medoid) {
		p.clock++
		p.moved[id] = p.clock
	}
	copy(row, medoid)
	st.posDirty = false
}

// row is node id's row of the live position table.
func (p *Protocol) row(id sim.NodeID) space.Point { return space.Row(p.pos, p.dim, int(id)) }

// sameBits reports whether a and b hold bit-identical coordinates.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// stampMoved advances the position clock once if any row of the live
// table differs bit-for-bit from the batched pass's start-of-pass copy,
// and stamps every such row with the new value.
func (p *Protocol) stampMoved() {
	next, moved := p.clock+1, false
	for i, v := range p.posSnap {
		if math.Float64bits(v) != math.Float64bits(p.pos[i]) {
			p.moved[i/p.dim] = next
			moved = true
		}
	}
	if moved {
		p.clock = next
	}
}

// --- sim.Batched ---

// Batchable implements sim.Batched: the layer can run batched when its
// overlay offers worker-slot queries and its failure detector declares
// order-independent, race-free answers. Otherwise the engine keeps this
// layer on the sequential path (lower layers may still batch).
func (p *Protocol) Batchable() bool {
	if p.wtopo == nil {
		return false
	}
	ps, ok := p.cfg.Detector.(fd.ParallelSafe)
	return ok && ps.ParallelSafe()
}

// PlanInvariant implements sim.PlanInvariant: a Polystyrene step's
// selection reads only the position snapshot, the frozen overlay views,
// the frozen detector answers and the initiator's own sampling view —
// nothing another Polystyrene step mutates — so cached plans stay valid
// for the whole pass and deferred steps are never re-planned.
func (p *Protocol) PlanInvariant() bool { return true }

// BeginBatchedRound implements sim.Batched: it sizes the per-worker
// scratch (here and in the overlay below) and copies the position table.
// Migration and placement windows rank candidates by position; serving
// those reads from a start-of-pass copy keeps rankings identical no matter
// which projections have already run concurrently — and therefore
// identical at every worker count.
func (p *Protocol) BeginBatchedRound(e *sim.Engine, workers int) {
	p.ensureWorkers(workers)
	p.wtopo.EnsureWorkers(workers)
	p.posSnap = append(p.posSnap[:0], p.pos...)
	p.snapOn = true
}

// PlanStep implements sim.Batched: it appends the step's conflict set —
// {id} ∪ {backup targets surviving the prune} ∪ {targets the top-up will
// pick} ∪ {the migration partner} — by mirroring the step's selection
// sequence draw-for-draw on the throwaway stream, without mutating
// anything.
func (p *Protocol) PlanStep(e *sim.Engine, rng *xrand.Rand, id sim.NodeID, dst []sim.NodeID) []sim.NodeID {
	dst = append(dst, id)
	st := p.nodes[id]
	// recover draws nothing and touches only id's own state, so it needs
	// no mirror. Mirror backup's prune: surviving targets will all be
	// pushed to.
	base := len(dst)
	for _, b := range st.backups {
		if !p.cfg.Detector.Failed(e, id, b) {
			dst = append(dst, b)
		}
	}
	kept := len(dst) - base
	if missing := p.cfg.K - kept; missing > 0 {
		dst = p.planPickBackupTargets(e, rng, id, dst, base, missing)
	}

	// Mirror migrate's partner selection: ψ-window plus one random peer,
	// live-filtered, uniform pick.
	cand := p.planTopoNeighbors(p.plan.cand[:0], id, psi)
	if r := p.cfg.Sampler.PlanRandomPeer(e, rng, id); r != sim.None && r != id {
		dup := false
		for _, c := range cand {
			if c == r {
				dup = true
				break
			}
		}
		if !dup {
			cand = append(cand, r)
		}
	}
	live := cand[:0]
	for _, c := range cand {
		if e.Alive(c) {
			live = append(live, c)
		}
	}
	p.plan.cand = live
	if len(live) > 0 {
		dst = append(dst, live[rng.Intn(len(live))])
	}
	return dst
}

// planPickBackupTargets mirrors pickBackupTargets draw-for-draw against
// unmutated state: dst[keptOff:] holds the pruned target list, and picked
// targets append to dst.
func (p *Protocol) planPickBackupTargets(e *sim.Engine, rng *xrand.Rand, id sim.NodeID, dst []sim.NodeID, keptOff, n int) []sim.NodeID {
	exclude, gen := p.plan.nset.Next(e.NumNodes())
	exclude[id] = gen
	for _, b := range dst[keptOff:] {
		exclude[b] = gen
	}

	want := n + (len(dst) - keptOff) + 1
	candidates := p.cfg.Sampler.AppendPlanRandomPeers(p.plan.nbr[:0], e, rng, id, want)
	p.plan.nbr = candidates

	added := 0
	for _, c := range candidates {
		if added == n {
			return dst
		}
		if exclude[c] != gen && e.Alive(c) {
			exclude[c] = gen
			dst = append(dst, c)
			added++
		}
	}
	for tries := 0; added < n && tries < 20*n; tries++ {
		c := sim.None
		if e.NumLive() > 0 {
			c = e.LiveAt(rng.Intn(e.NumLive()))
		}
		if c != sim.None && exclude[c] != gen {
			exclude[c] = gen
			dst = append(dst, c)
			added++
		}
	}
	return dst
}

// planTopoNeighbors is topoAppendNeighbors for the matcher: the overlay
// query over the provider's plan scratch.
func (p *Protocol) planTopoNeighbors(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	return p.wtopo.AppendNeighborsPlan(dst, id, k)
}

// FlushBatch implements sim.Batched (a step defers nothing).
func (p *Protocol) FlushBatch(e *sim.Engine) {}

// EndBatchedRound implements sim.Batched, restoring live Position reads
// before observers run, stamping the rows the pass moved on the position
// clock, and marking the guests⁻¹ table stale (the sequential path's
// per-step clock and stale mark must not run on concurrent workers).
func (p *Protocol) EndBatchedRound(e *sim.Engine) {
	p.snapOn = false
	p.stampMoved()
	p.holders.stale = true
}

// --- Accessors (used by the position func, metrics and tests) ---

// Position returns the node's current virtual position. It is valid for
// dead nodes too (their last position), which T-Man needs while purging.
// During the layer's own batched pass it serves the start-of-pass
// snapshot, so concurrent neighbour rankings are scheduling-independent.
//
// The result is a capacity-capped view of the node's row of
// PositionTable, so the call allocates nothing. The view is read-only and
// valid only until the node's next projection, which overwrites the row in
// place; callers that keep a position must Clone it.
func (p *Protocol) Position(id sim.NodeID) space.Point {
	return space.Row(p.PositionTable(), p.dim, int(id))
}

// PositionTable returns the flat position table Position reads from: node
// id's position is the row [id*dim, (id+1)*dim), dim = Config.Space.Dim().
// During the layer's batched pass it is the start-of-pass snapshot,
// otherwise the live table. The table is read-only to callers, and a
// table obtained before a round or a restore must not be used after it:
// projections rewrite rows and joins or restores may reallocate it.
func (p *Protocol) PositionTable() []float64 {
	if p.snapOn {
		return p.posSnap
	}
	return p.pos
}

// PositionClock returns the position table's move clock: moved[id] is the
// clock value at which node id's row last changed bits, and now is the
// current value. The clock advances only when a row moves — at InitNode,
// at a sequential projection that changes the row, once at the end of a
// batched pass that changed any row, and at RestoreState, which stamps
// every row — so a ranking made at clock value t is still valid while
// every row it read has moved[id] <= t. During the layer's batched pass
// the clock describes the start-of-pass table that PositionTable serves.
// Both results are read-only to callers and, like the table, must not be
// kept across a round or a restore.
func (p *Protocol) PositionClock() (moved []uint64, now uint64) {
	return p.moved, p.clock
}

// Guests returns a copy of the node's guest points. Hot paths should use
// GuestsFunc or AppendGuests instead, which do not allocate.
func (p *Protocol) Guests(id sim.NodeID) []space.Point {
	return clonePoints(p.nodes[id].guests)
}

// GuestsFunc calls fn for every guest point of id, with its interned ID,
// without copying the set. fn must not mutate the point and must not call
// back into the protocol.
func (p *Protocol) GuestsFunc(id sim.NodeID, fn func(pt space.Point, pid space.PointID)) {
	st := p.nodes[id]
	for i, g := range st.guests {
		fn(g, st.guestIDs[i])
	}
}

// AppendGuests appends the node's guest points to dst and returns it —
// the allocation-free alternative to Guests for callers with a reusable
// buffer. The points themselves are shared and must not be mutated.
func (p *Protocol) AppendGuests(id sim.NodeID, dst []space.Point) []space.Point {
	return append(dst, p.nodes[id].guests...)
}

// NumGuests returns how many guest points the node hosts.
func (p *Protocol) NumGuests(id sim.NodeID) int { return len(p.nodes[id].guests) }

// NumGhosts returns how many ghost points the node stores.
func (p *Protocol) NumGhosts(id sim.NodeID) int { return len(p.nodes[id].ghostIDs) }

// HoldersOf returns the live nodes hosting the interned point as a guest,
// in ascending order, and satisfies metrics.HolderIndex. It answers from
// a table of guests⁻¹ over the live nodes, which it rebuilds first when a
// guest set may have changed since the last build (a join, a restore, a
// sequential step that changed guests, a batched pass) or a node has
// crashed. A round's readers therefore share one build. The result is
// read-only and valid until the next round, join, crash or restore; like
// every accessor, HoldersOf must not run concurrently with the engine.
// Before the first InitNode the layer knows no engine and counts every
// node with state as live.
func (p *Protocol) HoldersOf(pid space.PointID) []sim.NodeID {
	h := p.holdersTable()
	if int(pid) >= len(h.off)-1 {
		return nil
	}
	lo, hi := h.off[pid], h.off[pid+1]
	return h.ids[lo:hi:hi]
}

// HoldersIndexFootprint reports the guests⁻¹ table HoldersOf reads,
// rebuilt first if stale: its entry count (live holdings), the capacity
// of its entry array, and that capacity again as the bound the table
// never exceeds.
func (p *Protocol) HoldersIndexFootprint() (entries, capacity, bound int) {
	h := p.holdersTable()
	return len(h.ids), cap(h.ids), cap(h.ids)
}

// holderTable is guests⁻¹ over the live nodes as a counting sort: point
// pid's holders are ids[off[pid]:off[pid+1]], ascending. stale and live
// decide when it must be rebuilt: stale is set whenever a guest set may
// have changed, and live is the engine's live count at the build, which
// drops with every crash (a join sets stale).
type holderTable struct {
	stale bool
	live  int
	off   []int32
	ids   []sim.NodeID
}

// holdersTable returns the guests⁻¹ table, first rebuilding it if stale:
// count every live node's guests per point, turn the counts into run ends
// by a prefix sum, then fill each run back to front from the highest node
// down, which leaves off[pid] at the run's start and every run ascending.
func (p *Protocol) holdersTable() *holderTable {
	h := &p.holders
	if !h.stale && (p.eng == nil || p.eng.NumLive() == h.live) {
		return h
	}
	alive := func(id int) bool {
		return p.nodes[id] != nil && (p.eng == nil || p.eng.Alive(sim.NodeID(id)))
	}
	np := p.cfg.Interner.Len()
	off := slices.Grow(h.off[:0], np+1)[:np+1]
	clear(off)
	for id, st := range p.nodes {
		if alive(id) {
			for _, pid := range st.guestIDs {
				off[pid]++
			}
		}
	}
	for i := 1; i <= np; i++ {
		off[i] += off[i-1]
	}
	n := int(off[np])
	ids := slices.Grow(h.ids[:0], n)[:n]
	for id := len(p.nodes) - 1; id >= 0; id-- {
		if alive(id) {
			for _, pid := range p.nodes[id].guestIDs {
				off[pid]--
				ids[off[pid]] = sim.NodeID(id)
			}
		}
	}
	h.off, h.ids, h.stale = off, ids, false
	if p.eng != nil {
		h.live = p.eng.NumLive()
	}
	return h
}

// --- point-set helpers ---

// clonePoints returns an independent copy of pts (points themselves are
// immutable and may be shared).
func clonePoints(pts []space.Point) []space.Point {
	out := make([]space.Point, len(pts))
	copy(out, pts)
	return out
}
