package tman

import (
	"fmt"

	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
)

var _ sim.Snapshotter = (*Protocol)(nil)

// SnapshotState implements sim.Snapshotter. The per-node neighbour views
// are the protocol's only cross-round state; worker scratch and the plan
// mirrors are rebuilt within each round, and the ranked-view stamps are
// reset on restore.
func (p *Protocol) SnapshotState(w *snap.Writer) {
	w.Count(len(p.views))
	for _, v := range p.views {
		w.Count(len(v))
		w.I32s(v)
	}
}

// RestoreState implements sim.Snapshotter. Each view is parsed into a
// row, carved page by page from a slab of its own as the views are read,
// so a section that lies about its view count costs memory in proportion
// to the bytes it really holds. The new rows replace the current ones
// only once the whole section has parsed; on any error the protocol is
// left as it was. A view count other than the engine's node count, a view
// longer than restCap, the most a row holds between merges, an entry
// outside [0, n), where n is the section's view count, and an entry naming
// the view's own node are refused.
func (p *Protocol) RestoreState(r *snap.Reader) error {
	n := r.NodeCount(4)
	views := make([][]int32, n)
	var rows rowSlab
	for i := range views {
		ln := r.Count(4)
		if ln > restCap {
			return fmt.Errorf("tman: snapshot view of node %d holds %d entries, more than the %d a row keeps", i, ln, restCap)
		}
		row := rows.carve()[:ln]
		if r.I32s(row); r.Err() != nil {
			return r.Err()
		}
		for _, v := range row {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("tman: snapshot view of node %d holds node %d, outside [0,%d)", i, v, n)
			}
			if int(v) == i {
				return fmt.Errorf("tman: snapshot view of node %d holds the node itself", i)
			}
		}
		views[i] = row
	}
	if err := r.Err(); err != nil {
		return err
	}
	p.views, p.rows = views, rows
	// Ranking stamps are not persisted: every restored view starts
	// unranked and is re-sorted (one pass when it was saved sorted) the
	// first time its owner steps.
	p.rankedAt = append(p.rankedAt[:0], make([]uint64, n)...)
	return nil
}
