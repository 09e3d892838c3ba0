// Package rps implements the peer-sampling service at the bottom of the
// stack (Fig. 2 of the paper): a Cyclon-style gossip shuffle (Voulgaris,
// Gavidia & van Steen, JNSM 2005) that provides every node with a
// continuously refreshed random sample of the live network.
//
// Both layers above depend on it: T-Man seeds and refreshes its view with
// random peers to guarantee convergence (Sec. II-B), and Polystyrene picks
// its K backup nodes "as randomly as possible in the system ... using the
// underlying peer-sampling layer" (Sec. III-D).
//
// Following the paper's accounting ("we ... do not include the peer
// sampling protocol in our measurements", Sec. IV-A), this layer does not
// charge the engine's cost meter.
//
// Views are small (at most 20 entries, 10 exchanged per shuffle: the
// paper's Sec. IV-A constants), so membership tests are linear scans
// and per-exchange buffers are pooled per worker slot — a shuffle performs
// no map operations and no steady-state allocations. Under the sequential
// engine only slot 0 is ever used; under intra-round exchange batching
// (sim.Batched) each worker owns a slot, and the matcher plans on a
// dedicated plan scratch. A shuffle's conflict set is {initiator, shuffle
// partner}: Step reads and writes only those two views.
//
// Views live in fixed-stride rows of one paged slab. An entry is an int32
// id and an int32 age, 8 B, and each node owns a row of viewSize = 20
// entries (160 B) in a page of pageRows contiguous rows, carved when the
// node joins or the layer is restored. Node id's row is slot id%pageRows
// of page id/pageRows, and its view is the row's first lens[id] entries:
// there is no per-node slice. Every purge, bootstrap, swap-remove and
// merge works in place in the row, so a view's storage never grows or
// moves, and re-bootstrapping after a crash wave allocates nothing. The
// ids are int32 inside the layer only (InitNode refuses ids past
// math.MaxInt32); every exported query speaks sim.NodeID.
package rps

import (
	"fmt"
	"math"
	"math/bits"

	"polystyrene/internal/sim"
	"polystyrene/internal/xrand"
)

// The Cyclon parameters of the paper's setting (Sec. IV-A).
const (
	// viewSize is the maximum number of neighbours a node keeps.
	viewSize = 20
	// shuffleLen is the number of descriptors exchanged per shuffle.
	shuffleLen = 10
)

// A shuffle names the view slots it sent in a uint32 mask (see
// sampleForShuffle); this fails to compile if a view outgrows it.
const _ = uint32(1 << (viewSize - 1))

// Config has no fields: the view size and the shuffle length are the
// paper's constants.
type Config struct{}

// entry is a view slot: a neighbour ID plus its gossip age.
type entry struct {
	id  int32
	age int32
}

// pageRows is the number of view rows carved per page: 512 rows of 20
// 8-byte entries are 80 KiB, a whole number of the runtime's 8 KiB pages.
const pageRows = 512

// page is pageRows contiguous view rows.
type page [pageRows][viewSize]entry

// scratch is the reusable per-exchange state of one worker slot:
// candidate indices for sampling and the two in-flight message buffers
// (both live across a merge pair, so they need separate backing arrays).
type scratch struct {
	idxBuf []int
	bufA   []entry
	bufB   []entry
}

// Protocol is the peer-sampling layer. It implements sim.Protocol and
// sim.Batched.
type Protocol struct {
	// pages hold the view rows: node id's row is
	// pages[id/pageRows][id%pageRows].
	pages []*page
	// lens[id] is the length of id's view, the first lens[id] entries of
	// its row.
	lens []uint8

	// ws holds one scratch per worker slot (slot 0 is the sequential
	// engine's); plan is the matcher's dedicated read-only-mirror scratch.
	ws   []scratch
	plan planScratch
}

// planScratch backs the non-mutating selection mirrors PlanStep and the
// Plan* helpers run while the matcher forms batches (single-threaded).
type planScratch struct {
	peers []sim.NodeID
	idx   []int
}

var _ sim.Protocol = (*Protocol)(nil)
var _ sim.Batched = (*Protocol)(nil)

// New returns a peer-sampling protocol.
func New(Config) *Protocol {
	return &Protocol{ws: make([]scratch, 1)}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "rps" }

// scr returns worker slot w's scratch. Slots are sized single-threaded in
// BeginBatchedRound; out-of-range here would be an engine bug.
func (p *Protocol) scr(w int) *scratch { return &p.ws[w] }

// ensureWorkers grows the scratch-slot table to n slots (single-threaded:
// called from BeginBatchedRound before any worker starts).
func (p *Protocol) ensureWorkers(n int) {
	for len(p.ws) < n {
		p.ws = append(p.ws, scratch{})
	}
}

// InitNode implements sim.Protocol: a joining node is bootstrapped with up
// to viewSize random live peers (this models the out-of-band introduction
// every gossip system needs). Views hold int32 ids, so it panics for an id
// past math.MaxInt32.
func (p *Protocol) InitNode(e *sim.Engine, id sim.NodeID) {
	if id > math.MaxInt32 {
		panic(fmt.Sprintf("rps: node id %d is past the layer's limit: views hold int32 ids, at most math.MaxInt32 = %d", id, math.MaxInt32))
	}
	for len(p.lens) <= int(id) {
		if len(p.lens)%pageRows == 0 {
			p.pages = append(p.pages, new(page))
		}
		p.lens = append(p.lens, 0)
	}
	p.lens[id] = 0
	p.bootstrap(e.SeqCtx(), id)
}

// view returns id's view: the first lens[id] entries of its row, with the
// row's capacity, so appends fill the row in place.
func (p *Protocol) view(id sim.NodeID) []entry {
	return p.pages[id/pageRows][id%pageRows][:p.lens[id]]
}

// bootstrap fills id's empty view, in place, with up to viewSize random
// live peers and returns it.
func (p *Protocol) bootstrap(ctx *sim.StepCtx, id sim.NodeID) []entry {
	view := p.view(id)
	// Sample without replacement from the live set via rejection; the
	// join-time live set is usually much larger than the view.
	for attempts := 0; len(view) < viewSize && attempts < 20*viewSize; attempts++ {
		peer := ctx.RandomLive()
		if peer == sim.None || peer == id || viewContains(view, peer) {
			continue
		}
		view = append(view, entry{id: int32(peer)})
	}
	p.lens[id] = uint8(len(view))
	return view
}

// viewContains reports whether id occurs in view: the duplicate check of
// bootstrap, merge and RestoreState, a linear scan of at most viewSize
// entries.
func viewContains(view []entry, id sim.NodeID) bool {
	for _, en := range view {
		if sim.NodeID(en.id) == id {
			return true
		}
	}
	return false
}

// Step implements sim.Protocol: one Cyclon shuffle initiated by id.
func (p *Protocol) Step(e *sim.Engine, id sim.NodeID) {
	p.StepW(e.SeqCtx(), id)
}

// StepW implements sim.Batched: the shuffle under an explicit step
// context (the sequential Step routes through it with the engine's
// shared context, byte-identically).
func (p *Protocol) StepW(ctx *sim.StepCtx, id sim.NodeID) {
	e := ctx.Engine()
	view := p.purgeDead(e, id)
	if len(view) == 0 {
		view = p.bootstrap(ctx, id)
		if len(view) == 0 {
			return // alone in the system
		}
	}

	// Age all entries and pick the oldest as the shuffle partner; contacting
	// the oldest entry is what lets Cyclon evict stale (likely dead) links.
	oldest := 0
	for i := range view {
		view[i].age++
		if view[i].age > view[oldest].age {
			oldest = i
		}
	}
	q := sim.NodeID(view[oldest].id)
	// Remove q from p's view; if the exchange succeeds q is replaced by
	// fresh entries, and if q is dead the stale link is gone either way.
	view[oldest] = view[len(view)-1]
	p.lens[id]--
	if !e.Alive(q) {
		return
	}
	ctx.Touch(q)

	scr := p.scr(ctx.Worker())
	p.purgeDead(e, q)
	sentToQ, slotsP := p.sampleForShuffle(ctx, scr, id, q, shuffleLen-1, &scr.bufA)
	sentToQ = append(sentToQ, entry{id: int32(id), age: 0}) // fresh self-descriptor
	scr.bufA = sentToQ
	sentToP, slotsQ := p.sampleForShuffle(ctx, scr, q, id, shuffleLen, &scr.bufB)

	p.merge(id, sentToP, slotsP)
	p.merge(q, sentToQ, slotsQ)
}

// sampleForShuffle picks up to n random entries from owner's view,
// excluding peer itself, into the pooled buffer buf. It also returns the
// view slots it sampled, as a mask with bit i set for slot i, which is
// where owner's merge puts what it receives once its view is full.
func (p *Protocol) sampleForShuffle(ctx *sim.StepCtx, scr *scratch, owner, peer sim.NodeID, n int, buf *[]entry) ([]entry, uint32) {
	view := p.view(owner)
	cand := scr.idxBuf[:0]
	for i, en := range view {
		if sim.NodeID(en.id) != peer {
			cand = append(cand, i)
		}
	}
	scr.idxBuf = cand
	if n > len(cand) {
		n = len(cand)
	}
	// Partial Fisher-Yates over the candidate indices: the first n slots
	// become a uniform sample without replacement.
	out := (*buf)[:0]
	var slots uint32
	rng := ctx.Rand()
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
		out = append(out, view[cand[i]])
		slots |= 1 << cand[i]
	}
	*buf = out
	return out, slots
}

// merge installs received entries into owner's view, in place in its
// row, Cyclon style: skip self and duplicates, fill free slots first, then
// overwrite the slots of the entries owner just sent away — sent, the
// mask sampleForShuffle returned — in ascending slot order.
//
// Those are the slots a search of the view for the sent ids would find:
// a view holds no id twice and never its owner (so the initiator's
// self-descriptor names no slot), and an entry merge writes is one the
// view did not hold, so it is never a sent one.
func (p *Protocol) merge(owner sim.NodeID, received []entry, sent uint32) {
	view := p.view(owner)
	for _, en := range received {
		if sim.NodeID(en.id) == owner || viewContains(view, sim.NodeID(en.id)) {
			continue
		}
		if len(view) < viewSize {
			view = append(view, en)
			continue
		}
		if sent == 0 {
			break // view full and nothing left to replace
		}
		view[bits.TrailingZeros32(sent)] = en
		sent &= sent - 1
	}
	p.lens[owner] = uint8(len(view))
}

// purgeDead removes entries for crashed nodes from id's view, in place,
// and returns the view. Views hold ids below the layer's node count, so
// while all of those are alive there is nothing to remove.
func (p *Protocol) purgeDead(e *sim.Engine, id sim.NodeID) []entry {
	view := p.view(id)
	if e.AllAlive(len(p.lens)) {
		return view
	}
	kept := view[:0]
	for _, en := range view {
		if e.Alive(sim.NodeID(en.id)) {
			kept = append(kept, en)
		}
	}
	p.lens[id] = uint8(len(kept))
	return kept
}

// --- sim.Batched ---

// Batchable implements sim.Batched: shuffles are always pair-local.
func (p *Protocol) Batchable() bool { return true }

// BeginBatchedRound implements sim.Batched, sizing per-worker scratch.
func (p *Protocol) BeginBatchedRound(e *sim.Engine, workers int) {
	p.ensureWorkers(workers)
}

// PlanStep implements sim.Batched: it predicts the shuffle partner of
// StepW(id) — the oldest live view entry, or the head of the bootstrap
// view a node with no live links would draw — without mutating anything,
// and appends {id, partner} (or just {id} for a no-op step) to dst.
func (p *Protocol) PlanStep(e *sim.Engine, rng *xrand.Rand, id sim.NodeID, dst []sim.NodeID) []sim.NodeID {
	dst = append(dst, id)
	// Mirror of purge + age + argmax: purging preserves order and ageing
	// is uniform, so the partner is the first strictly-oldest live entry.
	q, bestAge, found := sim.None, int32(0), false
	for _, en := range p.view(id) {
		if e.Alive(sim.NodeID(en.id)) && (!found || en.age > bestAge) {
			q, bestAge, found = sim.NodeID(en.id), en.age, true
		}
	}
	if !found {
		// Mirror of bootstrapView: replicate its rejection sampling
		// draw-for-draw on the throwaway stream; the bootstrapped view's
		// entries all carry age 0, so the partner is its first entry.
		sv := p.plan.peers[:0]
		for attempts := 0; len(sv) < viewSize && attempts < 20*viewSize; attempts++ {
			peer := planRandomLive(e, rng)
			if peer == sim.None || peer == id || idsContain(sv, peer) {
				continue
			}
			sv = append(sv, peer)
		}
		p.plan.peers = sv
		if len(sv) == 0 {
			return dst // alone in the system: StepW is a no-op
		}
		q = sv[0]
	}
	return append(dst, q)
}

// FlushBatch implements sim.Batched (the shuffle defers nothing).
func (p *Protocol) FlushBatch(e *sim.Engine) {}

// EndBatchedRound implements sim.Batched.
func (p *Protocol) EndBatchedRound(e *sim.Engine) {}

// planRandomLive is StepCtx.RandomLive against an explicit stream, for
// plan mirrors.
func planRandomLive(e *sim.Engine, rng *xrand.Rand) sim.NodeID {
	if e.NumLive() == 0 {
		return sim.None
	}
	return e.LiveAt(rng.Intn(e.NumLive()))
}

func idsContain(ids []sim.NodeID, id sim.NodeID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// --- queries used by the layers above ---

// RandomPeerW returns a uniformly random live peer from id's view, or
// sim.None when the view holds no live peer. Layers above use this as
// their source of fresh random nodes. The drawing stream comes from the
// step context, as do the caller's scratch slots.
func (p *Protocol) RandomPeerW(ctx *sim.StepCtx, id sim.NodeID) sim.NodeID {
	view := p.purgeDead(ctx.Engine(), id)
	if len(view) == 0 {
		return sim.None
	}
	return sim.NodeID(view[ctx.Rand().Intn(len(view))].id)
}

// PlanRandomPeer predicts what RandomPeerW(ctx, id) will return for a
// context whose stream is (a copy of) rng, without mutating the view —
// the selection mirror the batch matcher uses. Exactly one Intn is drawn
// iff the view holds a live peer, matching RandomPeerW draw-for-draw.
func (p *Protocol) PlanRandomPeer(e *sim.Engine, rng *xrand.Rand, id sim.NodeID) sim.NodeID {
	live := p.plan.peers[:0]
	for _, en := range p.view(id) {
		if e.Alive(sim.NodeID(en.id)) {
			live = append(live, sim.NodeID(en.id))
		}
	}
	p.plan.peers = live
	if len(live) == 0 {
		return sim.None
	}
	return live[rng.Intn(len(live))]
}

// AppendRandomPeers appends up to n distinct live peers from id's view to
// dst and returns the extended slice. Callers pool the buffer (backup
// top-up, view re-seeding), so the query does not allocate.
func (p *Protocol) AppendRandomPeers(dst []sim.NodeID, e *sim.Engine, id sim.NodeID, n int) []sim.NodeID {
	return p.AppendRandomPeersW(e.SeqCtx(), dst, id, n)
}

// AppendRandomPeersW is AppendRandomPeers under an explicit step context.
func (p *Protocol) AppendRandomPeersW(ctx *sim.StepCtx, dst []sim.NodeID, id sim.NodeID, n int) []sim.NodeID {
	view := p.purgeDead(ctx.Engine(), id)
	if n > len(view) {
		n = len(view)
	}
	if n <= 0 {
		return dst
	}
	scr := p.scr(ctx.Worker())
	cand := scr.idxBuf[:0]
	for i := range view {
		cand = append(cand, i)
	}
	scr.idxBuf = cand
	rng := ctx.Rand()
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
		dst = append(dst, sim.NodeID(view[cand[i]].id))
	}
	return dst
}

// AppendPlanRandomPeers predicts what AppendRandomPeersW(ctx, dst, id, n)
// will append for a context whose stream is (a copy of) rng, without
// mutating the view — draw-for-draw identical to the real call, over the
// plan scratch.
func (p *Protocol) AppendPlanRandomPeers(dst []sim.NodeID, e *sim.Engine, rng *xrand.Rand, id sim.NodeID, n int) []sim.NodeID {
	live := p.plan.peers[:0]
	for _, en := range p.view(id) {
		if e.Alive(sim.NodeID(en.id)) {
			live = append(live, sim.NodeID(en.id))
		}
	}
	p.plan.peers = live
	if n > len(live) {
		n = len(live)
	}
	if n <= 0 {
		return dst
	}
	cand := p.plan.idx[:0]
	for i := range live {
		cand = append(cand, i)
	}
	p.plan.idx = cand
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
		dst = append(dst, live[cand[i]])
	}
	return dst
}
