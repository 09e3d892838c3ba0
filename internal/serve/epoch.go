package serve

import (
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// DefaultFanout is the per-node neighbour count captured into an epoch's
// router view when the caller does not choose one. Greedy descent needs a
// wider fanout than the metric neighbourhood (side-steps out of shallow
// local minima on a recovering, half-density shape), so this is 2x the
// paper's K=4 neighbourhood.
const DefaultFanout = 8

// lookupProbes is how many evenly strided live nodes SeedDescent samples
// to seed a lookup's greedy descent. A handful of starts is enough to
// land the descent in the target's basin on a converged shape.
const lookupProbes = 8

// lookupMaxHops bounds a Descend; greedy routing on an n-node torus needs
// O(sqrt(n)) hops, so this is generous for served scales, and because
// every hop strictly decreases the distance the bound only triggers on a
// pathological neighbour view.
const lookupMaxHops = 256

// Epoch is one immutable published read snapshot of a running system:
// the live population's positions, a compact router view (each live
// node's K closest overlay neighbours, stored as slot indexes so queries
// never translate IDs), the live-only holders index (interned data point
// -> hosting nodes) and per-node guest/ghost counts. Epochs are built by
// Capture on the round-driving goroutine and swapped into a Publisher;
// after publication nothing mutates them, so any number of readers query
// one concurrently without synchronisation. Every query method is
// allocation-free unless it appends to a caller-owned buffer.
type Epoch struct {
	// Seq is the publication sequence number (1-based, monotonic per
	// Publisher) and Round the engine round the snapshot was captured
	// after. Responses carry both, making staleness observable.
	Seq   uint64
	Round int
	// K is the per-node neighbour count captured into the router view.
	K int

	spc space.Space
	dim int
	// ids lists the live nodes in ascending NodeID order; slot[id] is
	// id's index into ids (and every per-node array), -1 when dead or
	// unknown. pos is the flattened position matrix (len(ids) x dim).
	ids  []sim.NodeID
	slot []int32
	pos  []float64
	// nbr is the flattened router view: row s holds the slots of node
	// ids[s]'s up-to-K closest live neighbours, -1 padded.
	nbr []int32
	// guests/ghosts count each slot's primary and replica points.
	guests []int32
	ghosts []int32
	// guestPID[guestOff[s]:guestOff[s+1]] are slot s's interned guest
	// point IDs; holdSlot[holdOff[pid]:holdOff[pid+1]] are the slots
	// currently hosting point pid (rebuilt from live guest sets at
	// capture, so the epoch's holders index never names a dead node).
	guestOff []int32
	guestPID []space.PointID
	holdOff  []int32
	holdSlot []int32
}

// Capture copies a new immutable epoch out of src, recording it as
// sequence number seq. k chooses the router-view fanout (<= 0 means
// DefaultFanout). It runs on the round-driving goroutine; cost is
// O(live x (dim + k + guests/node)) with a handful of exact-size
// allocations, measured by BenchmarkEpochPublish.
func Capture(src Source, k int, seq uint64) *Epoch {
	if k <= 0 {
		k = DefaultFanout
	}
	spc := src.Space()
	ep := &Epoch{
		Seq:   seq,
		Round: src.Round(),
		K:     k,
		spc:   spc,
		dim:   spc.Dim(),
	}
	ep.ids = src.AppendLive(make([]sim.NodeID, 0, 64))
	n := len(ep.ids)

	ep.slot = make([]int32, src.NumNodes())
	for i := range ep.slot {
		ep.slot[i] = -1
	}
	for s, id := range ep.ids {
		ep.slot[id] = int32(s)
	}

	ep.pos = make([]float64, n*ep.dim)
	ep.guests = make([]int32, n)
	ep.ghosts = make([]int32, n)
	ep.nbr = make([]int32, n*k)
	for i := range ep.nbr {
		ep.nbr[i] = -1
	}
	guestTotal := 0
	// row/written carry the per-node visitor state; the closure is
	// hoisted out of the loop so capture performs no per-node closure
	// allocation.
	var row []int32
	written := 0
	visit := func(nb sim.NodeID) bool {
		// The topology's views may still name crashed peers; the router
		// view keeps live ones only, so descent never parks on a corpse.
		if s := ep.slot[nb]; s >= 0 {
			row[written] = s
			written++
		}
		return true
	}
	for s, id := range ep.ids {
		copy(ep.pos[s*ep.dim:(s+1)*ep.dim], src.Position(id))
		row = ep.nbr[s*k : (s+1)*k]
		written = 0
		src.EachNeighbor(id, k, visit)
		g := src.NumGuests(id)
		ep.guests[s] = int32(g)
		ep.ghosts[s] = int32(src.NumGhosts(id))
		guestTotal += g
	}

	// Guest point IDs per slot, then the inverse (holders) as a
	// two-pass counting sort: count holders per point, prefix-sum into
	// offsets, fill. Rebuilding from live guest sets keeps the epoch's
	// holders index free of crashed nodes by construction.
	np := src.NumPoints()
	ep.guestOff = make([]int32, n+1)
	ep.guestPID = make([]space.PointID, 0, guestTotal)
	ep.holdOff = make([]int32, np+1)
	appendPID := func(pid space.PointID) {
		ep.guestPID = append(ep.guestPID, pid)
		if int(pid) < np {
			ep.holdOff[pid+1]++
		}
	}
	for s, id := range ep.ids {
		src.EachGuestID(id, appendPID)
		ep.guestOff[s+1] = int32(len(ep.guestPID))
	}
	for i := 1; i <= np; i++ {
		ep.holdOff[i] += ep.holdOff[i-1]
	}
	ep.holdSlot = make([]int32, len(ep.guestPID))
	if np > 0 {
		cursor := make([]int32, np)
		copy(cursor, ep.holdOff[:np])
		for s := range ep.ids {
			for _, pid := range ep.guestPID[ep.guestOff[s]:ep.guestOff[s+1]] {
				if int(pid) < np {
					ep.holdSlot[cursor[pid]] = int32(s)
					cursor[pid]++
				}
			}
		}
	}
	return ep
}

// NumLive returns how many nodes are live in this epoch.
func (ep *Epoch) NumLive() int { return len(ep.ids) }

// Dim returns the dimensionality of the epoch's data space.
func (ep *Epoch) Dim() int { return ep.dim }

// NumPoints returns the size of the interned data-point universe the
// holders index covers (0 for baseline overlays without a data layer).
func (ep *Epoch) NumPoints() int { return len(ep.holdOff) - 1 }

// HolderEntries returns the total number of (point, holder) pairs.
func (ep *Epoch) HolderEntries() int { return len(ep.holdSlot) }

// Contains reports whether id was live when the epoch was captured.
func (ep *Epoch) Contains(id sim.NodeID) bool {
	return id >= 0 && int(id) < len(ep.slot) && ep.slot[id] >= 0
}

// NodeAt returns the i-th live node in ascending ID order,
// 0 <= i < NumLive(). Query generators use it to pick valid targets.
func (ep *Epoch) NodeAt(i int) sim.NodeID { return ep.ids[i] }

// Position returns a live node's position as a read-only view into the
// epoch's backing array (callers must not mutate it), and false for a
// node that was dead or unknown at capture.
func (ep *Epoch) Position(id sim.NodeID) (space.Point, bool) {
	if !ep.Contains(id) {
		return nil, false
	}
	s := int(ep.slot[id])
	return space.Point(ep.pos[s*ep.dim : (s+1)*ep.dim]), true
}

// NumGuests returns how many primary data points a live node hosted at
// capture, and false for a dead or unknown node.
func (ep *Epoch) NumGuests(id sim.NodeID) (int, bool) {
	if !ep.Contains(id) {
		return 0, false
	}
	return int(ep.guests[ep.slot[id]]), true
}

// NumGhosts returns how many replica points a live node stored at
// capture, and false for a dead or unknown node.
func (ep *Epoch) NumGhosts(id sim.NodeID) (int, bool) {
	if !ep.Contains(id) {
		return 0, false
	}
	return int(ep.ghosts[ep.slot[id]]), true
}

// AppendNeighbors appends up to k of a live node's captured closest
// neighbours (increasing distance) to dst and returns the extended
// slice; ok is false for a dead or unknown node. k is capped at the
// epoch's captured fanout K.
func (ep *Epoch) AppendNeighbors(dst []sim.NodeID, id sim.NodeID, k int) (_ []sim.NodeID, ok bool) {
	if !ep.Contains(id) {
		return dst, false
	}
	if k > ep.K {
		k = ep.K
	}
	s := int(ep.slot[id])
	for _, ns := range ep.nbr[s*ep.K : s*ep.K+k] {
		if ns < 0 {
			break
		}
		dst = append(dst, ep.ids[ns])
	}
	return dst, true
}

// AppendGuestIDs appends a live node's interned guest point IDs to dst;
// ok is false for a dead or unknown node.
func (ep *Epoch) AppendGuestIDs(dst []space.PointID, id sim.NodeID) (_ []space.PointID, ok bool) {
	if !ep.Contains(id) {
		return dst, false
	}
	s := int(ep.slot[id])
	return append(dst, ep.guestPID[ep.guestOff[s]:ep.guestOff[s+1]]...), true
}

// AppendHolders appends the nodes that hosted interned point pid at
// capture to dst. Unknown point IDs (out of the captured universe)
// append nothing. An orphaned point — one the catastrophe left without
// any live holder — also appends nothing; that is the observable gap
// recovery closes round by round.
func (ep *Epoch) AppendHolders(dst []sim.NodeID, pid space.PointID) []sim.NodeID {
	if int(pid) >= ep.NumPoints() {
		return dst
	}
	for _, s := range ep.holdSlot[ep.holdOff[pid]:ep.holdOff[pid+1]] {
		dst = append(dst, ep.ids[s])
	}
	return dst
}

// Lookup returns the live node whose position is (locally) closest to
// the query point, its distance, and the number of greedy hops taken —
// the facade's Lookup executed against the epoch's immutable arrays:
// SeedDescent over the live slots seeds Descend over the captured router
// view, the same walk the facade takes over the live overlay. On a
// converged shape the local minimum it ends at is the global nearest
// node. It returns (None, 0, 0, false) when the epoch holds no live node
// or the query's dimension does not match the space — the consistent
// empty-set sentinel, never a panic, because served queries are
// untrusted input. Lookup performs no allocation (pinned by
// TestEpochLookupAllocFree and BenchmarkServeLookup).
func (ep *Epoch) Lookup(q []float64) (id sim.NodeID, dist float64, hops int, ok bool) {
	n := len(ep.ids)
	if n == 0 || len(q) != ep.dim {
		return sim.None, 0, 0, false
	}
	qp := space.Point(q)
	distTo := func(s int) float64 { return ep.spc.Distance(qp, ep.posAt(s)) }
	start, startD := SeedDescent(n, distTo)
	cur, curD, hops, _ := Descend(start, startD, distTo, ep.row)
	return ep.ids[cur], curD, hops, true
}

// SeedDescent returns the start of a lookup's greedy descent and its
// distance to the target: of the indexes 0..n-1 (n > 0) into a live set
// in ascending NodeID order, the closest of every stride-th one, stride =
// max(n/lookupProbes, 1), the lowest index winning ties.
func SeedDescent(n int, dist func(i int) float64) (start int, d float64) {
	stride := max(n/lookupProbes, 1)
	d = dist(0)
	for i := stride; i < n; i += stride {
		if di := dist(i); di < d {
			start, d = i, di
		}
	}
	return start, d
}

// Descend is the greedy walk every lookup takes: from start, at distance
// startD from the target, each hop moves to the strictly closest node of
// the current node's row, the first in row order winning ties and a
// negative entry ending the row. dist gives a node's distance to the
// target; a node that must never be taken, such as a crashed peer a view
// still names, reads +Inf. The walk stops at a local minimum, where no
// row entry improves, with converged true, or after lookupMaxHops hops
// with converged false.
func Descend(start int, startD float64, dist func(int) float64, row func(int) []int32) (dest int, d float64, hops int, converged bool) {
	dest, d = start, startD
	for ; hops < lookupMaxHops; hops++ {
		next, nextD := -1, d
		for _, nb := range row(dest) {
			if nb < 0 {
				break
			}
			if dn := dist(int(nb)); dn < nextD {
				next, nextD = int(nb), dn
			}
		}
		if next < 0 {
			return dest, d, hops, true
		}
		dest, d = next, nextD
	}
	return dest, d, hops, false
}

// row returns slot s's captured router row, -1 padded.
func (ep *Epoch) row(s int) []int32 { return ep.nbr[s*ep.K : (s+1)*ep.K] }

// posAt returns slot s's position as a view into the flat matrix.
func (ep *Epoch) posAt(s int) space.Point {
	return space.Point(ep.pos[s*ep.dim : (s+1)*ep.dim])
}
