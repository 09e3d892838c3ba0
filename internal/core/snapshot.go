package core

import (
	"fmt"

	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

var _ sim.Snapshotter = (*Protocol)(nil)

// SnapshotState implements sim.Snapshotter for the Polystyrene layer. It
// owns two pieces of durable state beyond the per-node Table I records:
// the shared point interner (the layer is its authority — every PointID
// in the snapshot is relative to the table serialized here) and the
// splitter's private random stream (consumed by diameter sampling, so it
// is part of the trajectory). The failure detector travels in this
// section too: it is configuration from the engine's point of view, but
// stateful detectors (fd.Delayed) influence recovery and must resume
// exactly. The guests⁻¹ table is derived from the guest sets and is not
// written; snapshot versions 1 to 3 carried an incrementally kept holders
// index, which RestoreState checks and drops.
//
// Guests and ghosts are serialized as interned PointIDs only; their
// point slices are rebuilt from the restored interner. Node positions are
// serialized as raw coordinates because a reinjected node's position is a
// half-step offset that is deliberately not a data point.
func (p *Protocol) SnapshotState(w *snap.Writer) {
	// Interner table, in ID order.
	in := p.cfg.Interner
	w.Count(in.Len())
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

	// Per-node state. The format carries one pushed list per backup
	// target; each is the node's one pushed set.
	w.Count(len(p.nodes))
	for i, st := range p.nodes {
		if st == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		w.Count(len(st.guestIDs))
		snap.U32s(w, st.guestIDs)
		writePoint(w, p.row(sim.NodeID(i)))
		w.Bool(st.posDirty)
		w.Count(len(st.ghostRuns))
		off := 0
		for _, r := range st.ghostRuns {
			w.I32(int(r.origin))
			w.Count(int(r.n))
			snap.U32s(w, st.ghostIDs[off:off+int(r.n)])
			off += int(r.n)
		}
		w.Count(len(st.backups))
		for _, b := range st.backups {
			w.I32(int(b))
			w.Count(len(st.pushed))
			snap.U32s(w, st.pushed)
		}
	}

	// Stateful detector, if any.
	if ds, ok := p.cfg.Detector.(sim.Snapshotter); ok {
		w.Bool(true)
		mark := w.BeginSection()
		ds.SnapshotState(w)
		w.EndSection(mark)
	} else {
		w.Bool(false)
	}
}

// RestoreState implements sim.Snapshotter. Until the interner is
// repopulated, PointIDs resolve against the parsed point table directly:
// the interner retains the very points it is given, so the guest slices
// are the same either way.
//
// A refused section leaves the protocol, its shared interner and its
// detector as they were. Parsing refuses, before anything is applied, a
// truncated section, a node count other than the engine's, a PointID
// outside the point table, a node position whose dimension is not the
// space's, a ghost origin or backup target outside [0, n) or naming its
// own node, ghost origins that do not strictly ascend, a repeated target,
// targets whose pushed lists differ, and, in a version 1 to 3 section, a
// holders entry outside [0, n), n being the section's node count. Two
// refusals show only while applying — a duplicate point in the interner
// table, and a detector section the detector refuses or does not consume
// exactly — and both put back what they changed.
//
// Every per-node slice — guests, ghost runs and their IDs, backup targets,
// pushed sets and the interned points' coordinates — is carved from an
// arena, and the node records from one array, so a restore allocates per
// chunk rather than per object. Arena slices have exact
// capacity, as separately made ones would: the first append to any of
// them reallocates it.
func (p *Protocol) RestoreState(r *snap.Reader) error {
	var (
		coords snap.Arena[float64]
		points snap.Arena[space.Point]
		pids   snap.Arena[space.PointID]
		nids   snap.Arena[sim.NodeID]
		runs   snap.Arena[ghostRun]
	)
	nPts := r.Count(4)
	pts := make([]space.Point, nPts)
	for i := range pts {
		pts[i] = readPoint(r, &coords)
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
	nNodes := r.NodeCount(1)
	nodes := make([]*nodeState, nNodes)
	states := make([]nodeState, nNodes)
	pos := make([]float64, nNodes*dim)
	// other refuses a ghost origin or backup target that is not another
	// node of the section.
	other := func(i, v int, what string) error {
		if err := r.Err(); err != nil {
			return err
		}
		if v < 0 || v >= nNodes || v == i {
			return fmt.Errorf("core: snapshot node %d names %s %d (n = %d)", i, what, v, nNodes)
		}
		return nil
	}
	var runBuf [256]space.PointID // a node's ghost IDs, moved to the heap only past 256
	runIDs := runBuf[:0]
	for i := range nodes {
		if !r.Bool() {
			continue
		}
		st := &states[i]
		ng := r.Count(4)
		st.guestIDs = pids.Take(ng)
		st.guests = points.Take(ng)
		for j := range st.guestIDs {
			pid, err := readPID(r, nPts, "guest")
			if err != nil {
				return err
			}
			st.guestIDs[j] = pid
			st.guests[j] = pts[pid]
		}
		// The position row: a reinjected node's position is deliberately
		// not a data point, so it travels as raw coordinates.
		if n := r.Count(8); n != dim {
			if err := r.Err(); err != nil {
				return err
			}
			return fmt.Errorf("core: snapshot position of node %d has dimension %d, space wants %d", i, n, dim)
		}
		for k := i * dim; k < (i+1)*dim; k++ {
			pos[k] = r.F64()
		}
		st.posDirty = r.Bool()

		// Ghost runs, origins ascending; their IDs gather in runIDs and
		// land in one exact slice.
		st.ghostRuns = runs.Take(r.Count(8))
		runIDs = runIDs[:0]
		for j := range st.ghostRuns {
			origin := r.I32()
			gn := r.Count(4)
			if err := other(i, origin, "ghost origin"); err != nil {
				return err
			}
			if j > 0 && origin <= int(st.ghostRuns[j-1].origin) {
				return fmt.Errorf("core: snapshot node %d's ghost origins do not strictly ascend (%d after %d)", i, origin, st.ghostRuns[j-1].origin)
			}
			st.ghostRuns[j] = ghostRun{origin: int32(origin), n: int32(gn)}
			for range gn {
				pid, err := readPID(r, nPts, "ghost")
				if err != nil {
					return err
				}
				runIDs = append(runIDs, pid)
			}
		}
		st.ghostIDs = pids.Take(len(runIDs))
		copy(st.ghostIDs, runIDs)

		// Backup targets, each with the one pushed set.
		st.backups = nids.Take(r.Count(8))
		seen, gen := p.ws[0].nset.Next(nNodes)
		for j := range st.backups {
			b := r.I32()
			np := r.Count(4)
			if err := other(i, b, "backup target"); err != nil {
				return err
			}
			if seen[b] == gen {
				return fmt.Errorf("core: snapshot node %d names backup target %d twice", i, b)
			}
			seen[b] = gen
			st.backups[j] = sim.NodeID(b)
			if j == 0 {
				st.pushed = pids.Take(np)
				for k := range st.pushed {
					pid, err := readPID(r, nPts, "pushed")
					if err != nil {
						return err
					}
					st.pushed[k] = pid
				}
				continue
			}
			same := np == len(st.pushed)
			for k := range np {
				pid := space.PointID(r.U32())
				same = same && pid == st.pushed[k]
			}
			if err := r.Err(); err != nil {
				return err
			}
			if !same {
				return fmt.Errorf("core: snapshot node %d pushed target %d a set other than target %d's", i, b, st.backups[0])
			}
		}
		nodes[i] = st
	}

	if r.Version() < 4 {
		if err := skipHolders(r, nNodes); err != nil {
			return err
		}
	}

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
	// every PointID parsed above resolves against the restored table; its
	// old table is put back if the detector refuses its section.
	in := p.cfg.Interner
	old, err := in.Replace(pts)
	if err != nil {
		return fmt.Errorf("core: snapshot interner table: %w", err)
	}
	if hasDet {
		if err := restoreDetector(ds, detSub); err != nil {
			in.Replace(old)
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
	p.holders.stale = true
	p.snapOn = false
	return nil
}

// skipHolders reads the holders index that versions 1 to 3 carry after
// the nodes, one list of node ids per PointID and the two counters of its
// old capacity trim, and drops it: the layer derives guests⁻¹ from the
// guest sets. Each entry is still refused outside [0, nNodes).
func skipHolders(r *snap.Reader, nNodes int) error {
	nLists := r.Count(4)
	for i := range nLists {
		for range r.Count(4) {
			v := r.I32()
			if v < 0 || v >= nNodes {
				if err := r.Err(); err != nil {
					return err
				}
				return fmt.Errorf("core: snapshot holders list of PointID %d names node %d (n = %d)", i, v, nNodes)
			}
		}
	}
	r.Int()
	r.Int()
	return r.Err()
}

// readPID reads one PointID and refuses one outside the point table.
func readPID(r *snap.Reader, nPts int, what string) (space.PointID, error) {
	pid := space.PointID(r.U32())
	if err := r.Err(); err != nil {
		return 0, err
	}
	if int(pid) >= nPts {
		return 0, fmt.Errorf("core: snapshot %s PointID %d out of range", what, pid)
	}
	return pid, nil
}

// restoreDetector restores a stateful detector from its section. A section
// the detector refuses, or does not consume exactly, puts back the state
// the detector had, which is saved first.
func restoreDetector(ds sim.Snapshotter, sub *snap.Reader) error {
	var saved snap.Writer
	ds.SnapshotState(&saved)
	err := ds.RestoreState(sub)
	if err == nil {
		err = snap.CloseSection("detector", sub)
	}
	if err != nil {
		if rerr := ds.RestoreState(snap.NewReader(saved.Bytes())); rerr != nil {
			panic(fmt.Sprintf("core: detector cannot restore its own state: %v", rerr))
		}
		return fmt.Errorf("core: restoring detector: %w", err)
	}
	return nil
}

func writePoint(w *snap.Writer, p space.Point) {
	w.Count(len(p))
	for _, c := range p {
		w.F64(c)
	}
}

func readPoint(r *snap.Reader, coords *snap.Arena[float64]) space.Point {
	n := r.Count(8)
	p := space.Point(coords.Take(n))
	for i := range p {
		p[i] = r.F64()
	}
	return p
}
