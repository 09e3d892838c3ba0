// Package tman implements the T-Man decentralized topology-construction
// protocol (Jelasity, Montresor & Babaoglu, Computer Networks 2009), the
// middle layer of the paper's stack and also its evaluation baseline.
//
// T-Man greedily organises nodes so that each ends up linked to its
// closest peers in a metric space: every round a node picks an exchange
// partner among its ψ closest neighbours, the two swap the m descriptors
// most useful to each other, and both keep the closest entries up to a
// view cap. Fresh random peers from the peer-sampling layer are folded in
// to guarantee convergence from any starting state (paper Sec. II-B).
//
// A key property required by Polystyrene (Sec. II-C) is that T-Man does
// not own node positions: it reads them from the layer that does. With
// plain T-Man that is Config.Position, returning the node's fixed original
// data point; with Polystyrene on top it is the medoid of the node's
// guests, which changes as data points migrate — this is how nodes "move"
// on the shape. Polystyrene (core.New) installs its flat position table
// through UsePositionTable, and every ranking then reads candidate rows
// straight off that table with space.RowDistances — one inlined loop on
// the paper's 2-D torus — instead of one Position call and one separately
// allocated point per candidate. Config.Position stays the path for an
// overlay with no table owner and the reference the table path is tested
// against; both give bit-identical distances, hence identical trajectories.
//
// Message-cost accounting follows the paper (Sec. IV-A): a descriptor
// (ID + position) costs 1 + dim units. Because positions are dynamic,
// T-Man also refreshes the coordinates of every view entry each round
// ("T-Man must update their positions in its view in each round, causing
// most of the traffic", Sec. IV-B), at dim units per entry.
//
// Ranking view entries by distance is the hottest code path of the whole
// simulator, so selections go through topk.SmallestK (partial selection,
// no comparator closures) over scratch buffers pooled per worker slot,
// and set-membership during merges uses a generation-stamped array
// indexed by the engine's dense NodeIDs.
//
// Most rankings need not run at all: a view's order against its owner
// changes only when the owner or an entry moves. Every view is kept sorted
// by (distance to its owner, id) and stamped with the value of a position
// clock at which it was sorted. A stamped view whose owner and entries
// have not moved since is ranked: the ψ-window, every neighbour query and
// PlanStep's mirror read its prefix, and a merge ranks only the m received
// entries and merges them in linearly. StepW re-ranks an initiator's view
// that is not ranked; buildBuffer, which ranks against the partner's
// position, always ranks in full. With Polystyrene on top, core installs
// its per-node move clock (UsePositionClock); plain T-Man keeps the static
// clock New installs, under which positions never move and a stamped view
// stays ranked until a re-seed or a restore. The sequential engine only
// ever uses slot 0; under intra-round exchange batching (sim.Batched) each
// worker owns a slot and the batch matcher plans on a dedicated mirror
// scratch. An exchange's conflict set is {initiator, partner}: Step reads
// and writes only those two views (it reads the *positions* of ranked
// candidates too, but positions are frozen during a T-Man pass, and the
// Polystyrene layer above snapshots them for its own pass).
//
// Views live in fixed-stride rows of one slab. Each node owns a row of
// restCap = max(viewCap, initDegree) = 100 int32 ids (400 B), carved with
// its neighbours in pages of contiguous rows when the node joins or the
// overlay is restored. The stride is a compile-time constant: the view cap
// (100) and the init degree (10) are the paper's Sec. IV-A values. A view
// never holds more than restCap entries: a merge assembles its candidates
// (the view plus at most DefaultMsgSize received ids) on the worker
// slot's scratch and writes only the survivors back. So every purge,
// re-seed, merge, ranking and prefix read works in place in the row, and
// a view's storage never grows or moves. The ids are int32 inside the
// overlay only (InitNode refuses ids past math.MaxInt32); every exported
// query speaks sim.NodeID.
//
// Neighbour queries are exposed through the allocation-free two-form API
// of core.Topology — AppendNeighbors (caller-owned buffer) and
// EachNeighbor (zero-copy visitor over the pooled selection scratch).
// Every selection ranks at most restCap + DefaultMsgSize = 120
// candidates, so the pooled buffers are bounded by construction.
package tman

import (
	"fmt"
	"math"

	"polystyrene/internal/genset"
	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/topk"
	"polystyrene/internal/xrand"
)

// The paper's experimental setting (Sec. IV-A).
const (
	// viewCap bounds the T-Man view ("capped to 100 peers").
	viewCap = 100
	// DefaultMsgSize is m, the number of descriptors per message.
	DefaultMsgSize = 20
	// psi is ψ, the number of closest neighbours the exchange partner is
	// drawn from.
	psi = 5
	// initDegree is the number of random peers a node's view is seeded
	// with ("initialized with 10 random neighbors from RPS").
	initDegree = 10
	// restCap is the most entries a view holds, and so a view row's
	// capacity: the cap, or a re-seed's initDegree random peers if that
	// were larger.
	restCap = max(viewCap, initDegree)
)

// PositionFunc reports the current virtual position of a node. It must
// return a valid point for every live node.
type PositionFunc func(id sim.NodeID) space.Point

// Config wires the protocol to the layers it reads. Every field is
// required.
type Config struct {
	// Space is the metric space positions live in.
	Space space.Space
	// Sampler is the underlying peer-sampling layer.
	Sampler *rps.Protocol
	// Position resolves a node's current virtual position. Unless the
	// position owner installs a clock that reports moves
	// (UsePositionClock), it must return each node's fixed position: a
	// view ranked against it stays ranked until it is re-seeded.
	Position PositionFunc
}

func (c Config) validate() error {
	if c.Space == nil {
		return fmt.Errorf("tman: Config.Space is required")
	}
	if c.Sampler == nil {
		return fmt.Errorf("tman: Config.Sampler is required")
	}
	if c.Position == nil {
		return fmt.Errorf("tman: Config.Position is required")
	}
	return nil
}

// pageRows is the number of view rows carved per page: 512 rows of 100
// int32 ids are 200 KiB, a whole number of the runtime's 8 KiB pages.
const pageRows = 512

// rowSlab carves view rows of restCap ids from pages of pageRows
// contiguous rows. A carved row is empty with capacity restCap, so appends
// fill it in place and can never write into the row carved after it.
type rowSlab struct {
	free []int32
	// pages counts the pages carved so far (view memory is pages ×
	// pageRows × restCap × 4 B).
	pages int
}

// carve returns the next unused row, starting a page when the current one
// is used up.
func (s *rowSlab) carve() []int32 {
	if len(s.free) == 0 {
		s.free = make([]int32, pageRows*restCap)
		s.pages++
	}
	row := s.free[:0:restCap]
	s.free = s.free[restCap:]
	return row
}

// scratch is one worker slot's pooled exchange state.
type scratch struct {
	// sel holds the pooled parallel (distance, id) selection arrays.
	sel topk.Scratch[int32]
	// candBuf assembles the owner+view candidate set for buildBuffer, the
	// partner-selection window and a merge's view+received candidates.
	candBuf []int32
	// msgA/msgB are the two in-flight message buffers of Step; both live
	// across a merge pair, so they need separate backing arrays.
	msgA []int32
	msgB []int32
	// peers receives the sampling layer's random peers before a re-seed
	// copies them into the row.
	peers []sim.NodeID
	// seen is the pooled membership set over dense NodeIDs used by merges.
	seen genset.Set
}

// Protocol is the T-Man layer. It implements sim.Protocol, sim.Batched
// and core.Topology.
type Protocol struct {
	cfg Config
	// views[id] is id's row: its len is the view size, its cap the stride.
	views [][]int32
	rows  rowSlab

	// ws holds one scratch per worker slot (slot 0 is the sequential
	// engine's and the external query path's); plan backs the matcher's
	// read-only selection mirrors and is all PlanStep writes.
	ws   []*scratch
	plan struct {
		sel   topk.Scratch[int32]
		cand  []int32
		part  []int32
		peers []sim.NodeID
	}

	// table, when installed by the position owner above, returns the flat
	// position table (stride dim) that rankings read instead of
	// cfg.Position; see UsePositionTable.
	table func() []float64
	dim   int
	// clock reports which positions moved since a given clock value: the
	// static clock New installs, or the position owner's; see
	// UsePositionClock. rankedAt[id] is the clock value at which id's view
	// was last left sorted by (distance to id, id), or 0 when it is not
	// known sorted.
	clock    func() (moved []uint64, now uint64)
	rankedAt []uint64
}

var _ sim.Protocol = (*Protocol)(nil)
var _ sim.Batched = (*Protocol)(nil)

// New returns a T-Man layer with the given configuration.
func New(cfg Config) (*Protocol, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Protocol{
		cfg:   cfg,
		ws:    []*scratch{{}},
		dim:   cfg.Space.Dim(),
		clock: staticClock,
	}, nil
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "tman" }

// UsePositionTable implements core.PositionTableUser: from now on every
// ranking reads positions from the table returned by table() — node id's
// position is the row [id*dim, (id+1)*dim) — instead of Config.Position.
// table is called once per ranking, so it may hand out a different table
// (a snapshot, a regrown one) from one call to the next. The table must
// hold the same positions Config.Position would return.
func (p *Protocol) UsePositionTable(table func() []float64) { p.table = table }

// staticClock is the position clock of an overlay whose positions never
// move: it always reads 1 and reports no moves, so a view stamped at 1
// stays ranked until it is re-seeded or restored.
func staticClock() (moved []uint64, now uint64) { return nil, 1 }

// UsePositionClock implements core.PositionClockUser, replacing the static
// clock New installs: a ranked view stays valid while neither its owner
// nor any entry has moved since it was stamped — moved[x] is the clock
// value at which node x's position last changed, now the current value.
// clock is called once per validity check and must describe the positions
// rankings read.
func (p *Protocol) UsePositionClock(clock func() (moved []uint64, now uint64)) {
	p.clock = clock
}

// EnsureWorkers implements core.WorkerTopology, growing the worker-slot
// table (single-threaded; called before any worker starts).
func (p *Protocol) EnsureWorkers(n int) {
	for len(p.ws) < n {
		p.ws = append(p.ws, &scratch{})
	}
}

// InitNode implements sim.Protocol, seeding the view with random peers.
// Views hold int32 ids, so it panics for an id past math.MaxInt32.
func (p *Protocol) InitNode(e *sim.Engine, id sim.NodeID) {
	if id > math.MaxInt32 {
		panic(fmt.Sprintf("tman: node id %d is past the overlay's limit: views hold int32 ids, at most math.MaxInt32 = %d", id, math.MaxInt32))
	}
	for len(p.views) <= int(id) {
		p.views = append(p.views, p.rows.carve())
		p.rankedAt = append(p.rankedAt, 0)
	}
	scr := p.ws[0]
	scr.peers = p.cfg.Sampler.AppendRandomPeers(scr.peers[:0], e, id, initDegree)
	p.views[id] = appendIDs(p.views[id][:0], scr.peers)
	p.rankedAt[id] = 0
}

// appendIDs appends ids to row as int32s.
func appendIDs(row []int32, ids []sim.NodeID) []int32 {
	for _, v := range ids {
		row = append(row, int32(v))
	}
	return row
}

// Step implements sim.Protocol: one T-Man gossip exchange initiated by id.
func (p *Protocol) Step(e *sim.Engine, id sim.NodeID) {
	p.StepW(e.SeqCtx(), id)
}

// StepW implements sim.Batched: the exchange under an explicit step
// context (the sequential Step routes through it byte-identically).
func (p *Protocol) StepW(ctx *sim.StepCtx, id sim.NodeID) {
	e := ctx.Engine()
	scr := p.ws[ctx.Worker()]
	p.purgeDead(ctx, id)
	// Refresh stale coordinates of the whole view: positions move every
	// round under Polystyrene, and the paper attributes most communication
	// traffic to these per-round position updates.
	ctx.Charge(len(p.views[id]) * sim.PointCost(p.cfg.Space.Dim()))
	if !p.ranked(id) {
		p.rankView(scr, id)
	}

	q := p.selectPartner(ctx, scr, id)
	if q == sim.None {
		return
	}
	ctx.Touch(q)
	p.purgeDead(ctx, q)

	// Each side sends the m descriptors most useful to the other, drawn
	// from its view plus its own fresh descriptor. Both buffers are pooled
	// on the worker slot: merge copies what it keeps into the rows.
	scr.msgA = p.buildBuffer(scr, scr.msgA[:0], id, p.pos(q))
	scr.msgB = p.buildBuffer(scr, scr.msgB[:0], q, p.pos(id))
	descCost := sim.DescriptorCost(p.cfg.Space.Dim())
	ctx.Charge((len(scr.msgA) + len(scr.msgB)) * descCost)

	p.merge(e, scr, id, scr.msgB)
	p.merge(e, scr, q, scr.msgA)
}

// pos resolves id's position: a row view of the installed table, or
// Config.Position when no table is installed.
func (p *Protocol) pos(id sim.NodeID) space.Point {
	if p.table == nil {
		return p.cfg.Position(id)
	}
	return space.Row(p.table(), p.dim, int(id))
}

// selectPartner draws the exchange partner uniformly from the ψ closest
// live view entries, augmented with one random peer from the sampling
// layer (which guarantees convergence and re-connects isolated nodes).
func (p *Protocol) selectPartner(ctx *sim.StepCtx, scr *scratch, id sim.NodeID) sim.NodeID {
	candidates := append(scr.candBuf[:0], p.closest(scr, id, psi)...)
	if r := p.cfg.Sampler.RandomPeerW(ctx, id); r != sim.None && r != id {
		candidates = appendAbsent(candidates, int32(r))
	}
	scr.candBuf = candidates
	if len(candidates) == 0 {
		return sim.None
	}
	return sim.NodeID(candidates[ctx.Rand().Intn(len(candidates))])
}

// appendAbsent appends r to ids unless ids already holds it.
func appendAbsent(ids []int32, r int32) []int32 {
	for _, c := range ids {
		if c == r {
			return ids
		}
	}
	return append(ids, r)
}

// buildBuffer appends to dst up to m descriptors from owner's view plus
// owner itself, ranked by proximity to the receiver's position target.
func (p *Protocol) buildBuffer(scr *scratch, dst []int32, owner sim.NodeID, target space.Point) []int32 {
	view := p.views[owner]
	cand := append(scr.candBuf[:0], int32(owner))
	cand = append(cand, view...)
	scr.candBuf = cand
	return append(dst, p.selectClosest(scr, cand, target, DefaultMsgSize)...)
}

// selectClosest partially selects the up-to-k IDs of cand whose positions
// are closest to target, ordered by increasing distance (ties toward the
// lower ID). Distances are evaluated once per candidate; selection is a
// topk pass over the slot's pooled scratch and the result aliases that
// scratch: it is only valid until the slot's next selection and must not
// be retained. Nothing is allocated.
func (p *Protocol) selectClosest(scr *scratch, cand []int32, target space.Point, k int) []int32 {
	return p.rank(&scr.sel, cand, target, k)
}

// rank is the selection behind selectClosest and the matcher's mirrors
// (over plan.sel): the keys are filled by space.RowDistances over the
// installed position table, or through Config.Position without one, and
// topk selects over sel.
func (p *Protocol) rank(sel *topk.Scratch[int32], cand []int32, target space.Point, k int) []int32 {
	dist, ids := sel.Get(len(cand))
	copy(ids, cand)
	p.distances(dist, ids, target)
	k = topk.SmallestK(dist, ids, k)
	return ids[:k]
}

// distances fills dist[i] with the distance from ids[i]'s position to
// target: space.RowDistances over the installed position table, or
// Config.Position without one.
func (p *Protocol) distances(dist []float64, ids []int32, target space.Point) {
	if p.table != nil {
		space.RowDistances(p.cfg.Space, dist, p.table(), ids, target)
		return
	}
	for i, c := range ids {
		dist[i] = p.cfg.Space.Distance(p.cfg.Position(sim.NodeID(c)), target)
	}
}

// ranked reports whether id's view is sorted by (distance to id, id)
// under the current positions: it was sorted at clock value rankedAt[id]
// and neither id nor any entry has moved since. Under the static clock
// every stamped view is ranked. It only reads, so queries stay safe on
// concurrent workers.
func (p *Protocol) ranked(id sim.NodeID) bool {
	at := p.rankedAt[id]
	if at == 0 {
		return false
	}
	moved, now := p.clock()
	if at == now {
		return true
	}
	if moved[id] > at {
		return false
	}
	for _, v := range p.views[id] {
		if moved[v] > at {
			return false
		}
	}
	return true
}

// rankView sorts id's whole view by (distance to id, id) in place and
// stamps it. SmallestK with k = len runs only its insertion sort, which is
// adaptive: a view that is still nearly sorted costs about one pass.
func (p *Protocol) rankView(scr *scratch, id sim.NodeID) {
	view := p.views[id]
	copy(view, p.selectClosest(scr, view, p.pos(id), len(view)))
	_, p.rankedAt[id] = p.clock()
}

// closest returns the k closest entries of id's view in increasing
// distance order: a prefix of the view itself when it is ranked, otherwise
// a selection on the slot's scratch. The result aliases the view or the
// scratch and must not be retained or mutated.
func (p *Protocol) closest(scr *scratch, id sim.NodeID, k int) []int32 {
	if p.ranked(id) {
		return prefix(p.views[id], k)
	}
	return p.selectClosest(scr, p.views[id], p.pos(id), k)
}

// prefix returns the first min(k, len(s)) elements of s.
func prefix(s []int32, k int) []int32 { return s[:min(k, len(s))] }

// merge folds received descriptors into owner's view and keeps the
// entries closest to owner's position, up to the view cap. The candidates
// (the view plus the received ids it lacks) are assembled on the worker
// slot's scratch and only the capped selection is written back into
// owner's row, so merges allocate nothing and a row never holds more than
// restCap ids. Every merge that adds entries leaves the view sorted and
// stamped: a ranked view only ranks the new entries and merges them in
// linearly (mergeRanked); any other view is selected in full.
func (p *Protocol) merge(e *sim.Engine, scr *scratch, owner sim.NodeID, received []int32) {
	view := p.views[owner]
	wasRanked := p.ranked(owner)
	stamp, gen := scr.seen.Next(e.NumNodes())
	stamp[owner] = gen
	for _, v := range view {
		stamp[v] = gen
	}
	cand := append(scr.candBuf[:0], view...)
	for _, r := range received {
		if stamp[r] != gen && e.Alive(sim.NodeID(r)) {
			stamp[r] = gen
			cand = append(cand, r)
		}
	}
	scr.candBuf = cand
	if len(cand) == len(view) {
		// Nothing new, and a view never exceeds the cap: the order and
		// stamp stand.
		return
	}
	if wasRanked {
		p.views[owner] = p.mergeRanked(scr, view, cand, len(view), p.pos(owner))
	} else {
		sel := p.selectClosest(scr, cand, p.pos(owner), min(len(cand), viewCap))
		p.views[owner] = view[:copy(view[:len(sel)], sel)]
	}
	_, p.rankedAt[owner] = p.clock()
}

// mergeRanked writes into row's backing array, and returns, the
// min(len(cand), viewCap) entries of cand closest to target, sorted by
// (distance, id), given that cand[:n0] is already so sorted; row's
// capacity must hold them. Only the new entries cand[n0:] are sorted
// (received buffers usually arrive sorted against the same target, so
// that is one insertion-sort pass); one linear merge then replaces the
// selection over all candidates. The result equals selectClosest(cand,
// target, min(len(cand), viewCap)).
func (p *Protocol) mergeRanked(scr *scratch, row, cand []int32, n0 int, target space.Point) []int32 {
	dist, ids := scr.sel.Get(len(cand))
	copy(ids, cand)
	p.distances(dist, ids, target)
	topk.SmallestK(dist[n0:], ids[n0:], len(ids)-n0)
	out := row[:min(len(ids), viewCap)]
	i, j := 0, n0
	for k := range out {
		// Take the ranked entry unless the new one orders first; ties on
		// distance break toward the lower id, as in topk.
		if j == len(ids) || i < n0 && (dist[i] < dist[j] || dist[i] == dist[j] && ids[i] < ids[j]) {
			out[k] = ids[i]
			i++
		} else {
			out[k] = ids[j]
			j++
		}
	}
	return out
}

// purgeDead removes crashed nodes from id's view in place, which keeps a
// ranked view ranked; if the view empties out it is re-seeded from the
// sampling layer (healing after failures), unranked, into the same row.
// Views hold ids below the overlay's node count, so while all of those
// are alive there is nothing to remove and only an empty view is touched.
func (p *Protocol) purgeDead(ctx *sim.StepCtx, id sim.NodeID) {
	e := ctx.Engine()
	view := p.views[id]
	kept := view
	if !e.AllAlive(len(p.views)) {
		kept = view[:0]
		for _, v := range view {
			if e.Alive(sim.NodeID(v)) {
				kept = append(kept, v)
			}
		}
	}
	if len(kept) == 0 {
		scr := p.ws[ctx.Worker()]
		scr.peers = p.cfg.Sampler.AppendRandomPeersW(ctx, scr.peers[:0], id, initDegree)
		kept = appendIDs(kept, scr.peers)
		p.rankedAt[id] = 0
	}
	p.views[id] = kept
}

// --- sim.Batched ---

// Batchable implements sim.Batched: exchanges are always pair-local.
func (p *Protocol) Batchable() bool { return true }

// BeginBatchedRound implements sim.Batched, sizing per-worker scratch for
// this layer's own pass and for the neighbour queries the layers above
// issue from their workers (AppendNeighborsW).
func (p *Protocol) BeginBatchedRound(e *sim.Engine, workers int) {
	p.EnsureWorkers(workers)
}

// PlanStep implements sim.Batched: it predicts the exchange partner of
// StepW(id) by mirroring the selection prefix — purge (and possible
// re-seed, replicated draw-for-draw on the throwaway stream), the ψ-window
// ranking, the blended random peer and the final uniform pick — without
// mutating any state, and appends {id, partner} (or {id} alone when the
// step will be a no-op) to dst.
func (p *Protocol) PlanStep(e *sim.Engine, rng *xrand.Rand, id sim.NodeID, dst []sim.NodeID) []sim.NodeID {
	dst = append(dst, id)
	// Mirror purgeDead(id): live entries keep their order; an emptied view
	// is re-seeded from the sampling layer. While no node has died the
	// purge keeps every entry, so the row is read in place; a re-seed goes
	// to the plan's scratch and never to the row.
	view := p.views[id]
	if !e.AllAlive(len(p.views)) {
		view = p.plan.cand[:0]
		for _, v := range p.views[id] {
			if e.Alive(sim.NodeID(v)) {
				view = append(view, v)
			}
		}
		p.plan.cand = view
	}
	ranked := len(view) > 0 && p.ranked(id)
	if len(view) == 0 {
		p.plan.peers = p.cfg.Sampler.AppendPlanRandomPeers(p.plan.peers[:0], e, rng, id, initDegree)
		view = appendIDs(p.plan.cand[:0], p.plan.peers)
		p.plan.cand = view
	}

	// Mirror selectPartner over the (possibly re-seeded) view. Purging
	// keeps a ranked view sorted, so its window is a prefix.
	window := prefix(view, psi)
	if !ranked {
		window = p.rank(&p.plan.sel, view, p.pos(id), psi)
	}
	candidates := append(p.plan.part[:0], window...)
	if r := p.cfg.Sampler.PlanRandomPeer(e, rng, id); r != sim.None && r != id {
		candidates = appendAbsent(candidates, int32(r))
	}
	p.plan.part = candidates
	if len(candidates) == 0 {
		return dst
	}
	return append(dst, sim.NodeID(candidates[rng.Intn(len(candidates))]))
}

// FlushBatch implements sim.Batched (the exchange defers nothing).
func (p *Protocol) FlushBatch(e *sim.Engine) {}

// EndBatchedRound implements sim.Batched.
func (p *Protocol) EndBatchedRound(e *sim.Engine) {}

// --- core.Topology ---

// AppendNeighbors implements core.Topology: it appends the k closest view
// entries of id to dst, ordered by increasing distance to id's current
// position, and returns the extended slice. The view is purged of crashed
// nodes only when id steps, so entries that crashed since may be among
// them; callers that need live partners filter (core's migrate does).
// With a caller-owned buffer the query is allocation-free; this is what
// the layers above consume (Polystyrene migration uses ψ, the evaluation
// metrics k = 4). A ranked view answers with its prefix. It runs on worker
// slot 0 — the sequential engine's and the observers' slot; batched steps
// of layers above use AppendNeighborsW.
func (p *Protocol) AppendNeighbors(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	return p.AppendNeighborsW(0, dst, id, k)
}

// AppendNeighborsW implements core.WorkerTopology: AppendNeighbors over
// worker slot w's selection scratch, so concurrent batched steps of the
// layer above can query the overlay without sharing buffers.
func (p *Protocol) AppendNeighborsW(w int, dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return dst
	}
	return appendNodeIDs(dst, p.closest(p.ws[w], id, k))
}

// appendNodeIDs appends the int32 ids of a row or selection to dst as
// sim.NodeIDs.
func appendNodeIDs(dst []sim.NodeID, ids []int32) []sim.NodeID {
	for _, v := range ids {
		dst = append(dst, sim.NodeID(v))
	}
	return dst
}

// AppendNeighborsPlan implements core.WorkerTopology: AppendNeighbors over
// the matcher's mirror scratch, for conflict-set planning by the layer
// above (single-threaded, between batches).
func (p *Protocol) AppendNeighborsPlan(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return dst
	}
	if p.ranked(id) {
		return appendNodeIDs(dst, prefix(p.views[id], k))
	}
	return appendNodeIDs(dst, p.rank(&p.plan.sel, p.views[id], p.pos(id), k))
}

// EachNeighbor implements core.Topology: it calls yield for each of the k
// closest view entries of id (the sequence AppendNeighbors appends, which
// may include entries that crashed since id last stepped) in increasing
// distance order, stopping early if yield returns false. The iteration
// runs over the view itself or the pooled selection scratch, so yield must
// not call back into this protocol.
func (p *Protocol) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return
	}
	for _, nb := range p.closest(p.ws[0], id, k) {
		if !yield(sim.NodeID(nb)) {
			return
		}
	}
}
