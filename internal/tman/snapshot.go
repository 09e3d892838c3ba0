package tman

import (
	"fmt"
	"math"

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

// RestoreState implements sim.Snapshotter. Each view is parsed into a
// fixed-stride row, carved page by page from a slab of its own as the
// views are read, so a section that lies about its view count costs
// memory in proportion to the bytes it really holds. The new rows replace
// the current ones only once the whole section has parsed; on any error
// the protocol is left as it was. A view longer than max(ViewCap,
// InitDegree), the most a row holds between merges, and an entry outside
// [0, n), where n is the section's view count, are refused.
func (p *Protocol) RestoreState(r *snap.Reader) error {
	n := r.Len(8)
	if n > math.MaxInt32+1 {
		return fmt.Errorf("tman: snapshot has %d views, the overlay's limit is %d", n, math.MaxInt32+1)
	}
	maxView := max(p.cfg.ViewCap, p.cfg.InitDegree)
	views := make([][]int32, n)
	rows := rowSlab{stride: p.rows.stride}
	for i := range views {
		ln := r.Len(8)
		if ln > maxView {
			return fmt.Errorf("tman: snapshot view of node %d holds %d entries, more than the %d a row keeps", i, ln, maxView)
		}
		row := rows.carve()[:ln]
		for j := range row {
			v := r.Int()
			if v < 0 || v >= n {
				return fmt.Errorf("tman: snapshot view of node %d holds node %d, outside [0,%d)", i, v, n)
			}
			row[j] = int32(v)
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
