package core

import (
	"fmt"
	"sort"

	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

var _ sim.Snapshotter = (*Protocol)(nil)

// SnapshotState implements sim.Snapshotter for the Polystyrene layer. It
// owns three pieces of durable state beyond the per-node Table I records:
// the shared point interner (the layer is its authority — every PointID
// in the snapshot is relative to the table serialized here), the
// incremental holders index including its trim-window counters, and the
// splitter's private random stream (consumed by diameter sampling, so it
// is part of the trajectory). The failure detector travels in this
// section too: it is configuration from the engine's point of view, but
// stateful detectors (fd.Delayed) influence recovery and must resume
// exactly.
//
// Guests and ghosts are serialized as interned PointIDs only; their
// point slices are rebuilt from the restored interner. Node positions are
// serialized as raw coordinates because a reinjected node's position is a
// half-step offset that is deliberately not a data point.
func (p *Protocol) SnapshotState(w *snap.Writer) {
	// Interner table, in ID order.
	in := p.cfg.Interner
	w.Len(in.Len())
	for id := 0; id < in.Len(); id++ {
		writePoint(w, in.PointOf(space.PointID(id)))
	}

	// Splitter stream.
	if p.splitter.Rng != nil {
		w.Bool(true)
		for _, s := range p.splitter.Rng.State() {
			w.U64(s)
		}
	} else {
		w.Bool(false)
	}

	// Per-node state.
	w.Len(len(p.nodes))
	for i, st := range p.nodes {
		if st == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		w.Len(len(st.guestIDs))
		for _, pid := range st.guestIDs {
			w.U32(uint32(pid))
		}
		writePoint(w, p.row(sim.NodeID(i)))
		w.Bool(st.posDirty)
		origins := make([]sim.NodeID, 0, len(st.ghosts))
		for o := range st.ghosts {
			origins = append(origins, o)
		}
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		w.Len(len(origins))
		for _, o := range origins {
			w.Int(int(o))
			gs := st.ghosts[o]
			w.Len(len(gs.ids))
			for _, pid := range gs.ids {
				w.U32(uint32(pid))
			}
		}
		w.Len(len(st.backups))
		for _, b := range st.backups {
			w.Int(int(b.node))
			w.Len(len(b.pushed))
			for _, pid := range b.pushed {
				w.U32(uint32(pid))
			}
		}
	}

	// Holders index with its trim high-water state. floor is config
	// (K+1) and is not serialized.
	w.Len(len(p.holders.lists))
	for _, l := range p.holders.lists {
		w.Len(len(l))
		for _, n := range l {
			w.Int(int(n))
		}
	}
	w.Int(p.holders.steps)
	w.Int(p.holders.hwMark)

	// Stateful detector, if any.
	if ds, ok := p.cfg.Detector.(sim.Snapshotter); ok {
		w.Bool(true)
		var dw snap.Writer
		ds.SnapshotState(&dw)
		w.Section(dw.Bytes())
	} else {
		w.Bool(false)
	}
}

// RestoreState implements sim.Snapshotter. The snapshot is parsed and
// validated in full before anything is applied, so one that is refused
// while parsing — truncated, an out-of-range PointID, a node position
// whose dimension is not the space's — leaves the protocol and its shared
// interner as they were. Until the interner is repopulated, PointIDs
// resolve against the parsed point table directly: the interner retains
// the very points it is given, so the guest and ghost slices are the same
// either way.
func (p *Protocol) RestoreState(r *snap.Reader) error {
	nPts := r.Len(8)
	pts := make([]space.Point, nPts)
	for i := range pts {
		pts[i] = readPoint(r)
	}
	if err := r.Err(); err != nil {
		return err
	}

	hasRng := r.Bool()
	var rngState [4]uint64
	if hasRng {
		for i := range rngState {
			rngState[i] = r.U64()
		}
	}

	dim := p.dim
	nNodes := r.Len(1)
	nodes := make([]*nodeState, nNodes)
	pos := make([]float64, nNodes*dim)
	for i := range nodes {
		if !r.Bool() {
			continue
		}
		st := &nodeState{ghosts: make(map[sim.NodeID]*ghostSet)}
		ng := r.Len(4)
		st.guestIDs = make([]space.PointID, ng)
		st.guests = make([]space.Point, ng)
		for j := 0; j < ng; j++ {
			pid := space.PointID(r.U32())
			if int(pid) >= nPts {
				return fmt.Errorf("core: snapshot guest PointID %d out of range", pid)
			}
			st.guestIDs[j] = pid
			st.guests[j] = pts[pid]
		}
		// The position row: a reinjected node's position is deliberately
		// not a data point, so it travels as raw coordinates.
		if n := r.Len(8); n != dim {
			if err := r.Err(); err != nil {
				return err
			}
			return fmt.Errorf("core: snapshot position of node %d has dimension %d, space wants %d", i, n, dim)
		}
		for k := i * dim; k < (i+1)*dim; k++ {
			pos[k] = r.F64()
		}
		st.posDirty = r.Bool()
		nGhost := r.Len(2)
		for j := 0; j < nGhost; j++ {
			origin := sim.NodeID(r.Int())
			gn := r.Len(4)
			gs := &ghostSet{
				ids: make([]space.PointID, gn),
				pts: make([]space.Point, gn),
			}
			for k := 0; k < gn; k++ {
				pid := space.PointID(r.U32())
				if int(pid) >= nPts {
					return fmt.Errorf("core: snapshot ghost PointID %d out of range", pid)
				}
				gs.ids[k] = pid
				gs.pts[k] = pts[pid]
			}
			st.ghosts[origin] = gs
		}
		nBk := r.Len(2)
		st.backups = make([]backupRef, nBk)
		for j := 0; j < nBk; j++ {
			st.backups[j].node = sim.NodeID(r.Int())
			np := r.Len(4)
			st.backups[j].pushed = make([]space.PointID, np)
			for k := 0; k < np; k++ {
				st.backups[j].pushed[k] = space.PointID(r.U32())
			}
		}
		nodes[i] = st
	}

	nLists := r.Len(1)
	lists := make([][]sim.NodeID, nLists)
	for i := range lists {
		ln := r.Len(8)
		l := make([]sim.NodeID, ln)
		for j := range l {
			l[j] = sim.NodeID(r.Int())
		}
		lists[i] = l
	}
	steps := r.Int()
	hwMark := r.Int()

	hasDet := r.Bool()
	ds, statefulDet := p.cfg.Detector.(sim.Snapshotter)
	if hasDet != statefulDet {
		return fmt.Errorf("core: snapshot detector state presence mismatch (snapshot %v, config %T)", hasDet, p.cfg.Detector)
	}
	var detSub *snap.Reader
	if hasDet {
		detSub = r.Section()
	}
	if err := r.Err(); err != nil {
		return err
	}

	// Apply. The interner is repopulated in the snapshot's ID order, so
	// every PointID parsed above resolves against the restored table.
	in := p.cfg.Interner
	in.Reset()
	for i, pt := range pts {
		if id := in.Intern(pt); id != space.PointID(i) {
			return fmt.Errorf("core: snapshot interner table has duplicate point at ID %d", i)
		}
	}
	if hasDet {
		if err := ds.RestoreState(detSub); err != nil {
			return fmt.Errorf("core: restoring detector: %w", err)
		}
		if err := snap.CloseSection("detector", detSub); err != nil {
			return err
		}
	}
	if hasRng {
		if p.splitter.Rng == nil {
			// The lazy Split in InitNode has not run in this engine (e.g.
			// a restore into a never-populated protocol); any placeholder
			// works, SetState overwrites it entirely.
			p.splitter.Rng = xrand.New(0)
		}
		p.splitter.Rng.SetState(rngState)
	} else {
		p.splitter.Rng = nil
	}
	p.nodes = nodes
	p.pos = pos
	// Every row may differ from what a ranking made before the restore
	// read, so the whole table counts as moved.
	p.clock++
	p.moved = p.moved[:0]
	for range nNodes {
		p.moved = append(p.moved, p.clock)
	}
	p.holders.lists = lists
	p.holders.steps = steps
	p.holders.hwMark = hwMark
	p.snapOn = false
	return nil
}

func writePoint(w *snap.Writer, p space.Point) {
	w.Len(len(p))
	for _, c := range p {
		w.F64(c)
	}
}

func readPoint(r *snap.Reader) space.Point {
	n := r.Len(8)
	p := make(space.Point, n)
	for i := range p {
		p[i] = r.F64()
	}
	return p
}
