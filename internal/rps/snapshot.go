package rps

import (
	"fmt"

	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
)

var _ sim.Snapshotter = (*Protocol)(nil)

// SnapshotState implements sim.Snapshotter. The per-node views (IDs and
// ages) are the protocol's only cross-round state; worker scratch and the
// matcher's plan mirrors are rebuilt every round.
func (p *Protocol) SnapshotState(w *snap.Writer) {
	w.Count(len(p.lens))
	var fields [2 * viewSize]int32 // a view's id, age, id, age, ...
	for id := range p.lens {
		v := p.view(sim.NodeID(id))
		w.Count(len(v))
		for j, e := range v {
			fields[2*j], fields[2*j+1] = e.id, e.age
		}
		w.I32s(fields[:2*len(v)])
	}
}

// RestoreState implements sim.Snapshotter. Each view is parsed into a
// row, carved page by page from pages of its own as the views are read,
// so a section that lies about its view count costs memory in proportion
// to the bytes it really holds. The new rows replace the current ones
// only once the whole section has parsed; on any error the protocol is
// left as it was. A view count other than the engine's node count, a view
// longer than viewSize, an entry outside [0, n), where n is the section's
// view count, an entry naming the view's own node and a negative age are
// refused.
func (p *Protocol) RestoreState(r *snap.Reader) error {
	n := r.NodeCount(4)
	lens := make([]uint8, n)
	pages := make([]*page, 0, (n+pageRows-1)/pageRows)
	var fields [2 * viewSize]int32 // a view's id, age, id, age, ...
	for i := range lens {
		ln := r.Count(8)
		if ln > viewSize {
			return fmt.Errorf("rps: snapshot view of node %d holds %d entries, more than the %d a view keeps", i, ln, viewSize)
		}
		if i%pageRows == 0 {
			pages = append(pages, new(page))
		}
		row := pages[i/pageRows][i%pageRows][:ln]
		if r.I32s(fields[:2*ln]); r.Err() != nil {
			return r.Err()
		}
		for j := range row {
			id, age := fields[2*j], fields[2*j+1]
			if id < 0 || int(id) >= n {
				return fmt.Errorf("rps: snapshot view of node %d holds node %d, outside [0,%d)", i, id, n)
			}
			if int(id) == i {
				return fmt.Errorf("rps: snapshot view of node %d holds the node itself", i)
			}
			if age < 0 {
				return fmt.Errorf("rps: snapshot view of node %d holds age %d", i, age)
			}
			row[j] = entry{id: id, age: age}
		}
		lens[i] = uint8(ln)
	}
	if err := r.Err(); err != nil {
		return err
	}
	p.pages, p.lens = pages, lens
	return nil
}
