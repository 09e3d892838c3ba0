package tman

import (
	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
)

var _ sim.Snapshotter = (*Protocol)(nil)

// SnapshotState implements sim.Snapshotter. The per-node neighbour views
// are the protocol's only cross-round state; worker scratch and the plan
// mirrors are rebuilt within each round, and the ranked-view stamps are
// reset on restore.
func (p *Protocol) SnapshotState(w *snap.Writer) {
	w.Len(len(p.views))
	for _, v := range p.views {
		w.Len(len(v))
		for _, id := range v {
			w.Int(int(id))
		}
	}
}

// RestoreState implements sim.Snapshotter. The views are carved from one
// arena; each keeps exact capacity, as a separately made one would, so the
// first merge that grows a view reallocates it just the same.
func (p *Protocol) RestoreState(r *snap.Reader) error {
	n := r.Len(8)
	views := make([][]sim.NodeID, n)
	var arena snap.Arena[sim.NodeID]
	for i := range views {
		ln := r.Len(8)
		v := arena.Take(ln)
		for j := range v {
			v[j] = sim.NodeID(r.Int())
		}
		views[i] = v
	}
	if err := r.Err(); err != nil {
		return err
	}
	p.views = views
	// Ranking stamps are not persisted: every restored view starts
	// unranked and is re-sorted (one pass when it was saved sorted) the
	// first time its owner steps.
	p.rankedAt = append(p.rankedAt[:0], make([]uint64, n)...)
	return nil
}
