package rps

import (
	"fmt"
	"math"

	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
)

var _ sim.Snapshotter = (*Protocol)(nil)

// SnapshotState implements sim.Snapshotter. The per-node views (IDs and
// ages) are the protocol's only cross-round state; worker scratch and the
// matcher's plan mirrors are rebuilt every round.
func (p *Protocol) SnapshotState(w *snap.Writer) {
	w.Len(len(p.lens))
	for id := range p.lens {
		v := p.view(sim.NodeID(id))
		w.Len(len(v))
		for _, e := range v {
			w.Int(int(e.id))
			w.Int(int(e.age))
		}
	}
}

// RestoreState implements sim.Snapshotter. Each view is parsed into a
// row, carved page by page from pages of its own as the views are read,
// so a section that lies about its view count costs memory in proportion
// to the bytes it really holds. The new rows replace the current ones
// only once the whole section has parsed; on any error the protocol is
// left as it was. A view longer than viewSize, an entry outside [0, n),
// where n is the section's view count, an entry naming the view's own
// node and an age outside [0, math.MaxInt32] are refused.
func (p *Protocol) RestoreState(r *snap.Reader) error {
	n := r.Len(8)
	if n > math.MaxInt32+1 {
		return fmt.Errorf("rps: snapshot has %d views, the layer's limit is %d", n, math.MaxInt32+1)
	}
	lens := make([]uint8, n)
	var pages []*page
	for i := range lens {
		ln := r.Len(16)
		if ln > viewSize {
			return fmt.Errorf("rps: snapshot view of node %d holds %d entries, more than the %d a view keeps", i, ln, viewSize)
		}
		if i%pageRows == 0 {
			pages = append(pages, new(page))
		}
		row := pages[i/pageRows][i%pageRows][:ln]
		for j := range row {
			id := r.Int()
			if id < 0 || id >= n {
				return fmt.Errorf("rps: snapshot view of node %d holds node %d, outside [0,%d)", i, id, n)
			}
			if id == i {
				return fmt.Errorf("rps: snapshot view of node %d holds the node itself", i)
			}
			age := r.Int()
			if age < 0 || age > math.MaxInt32 {
				return fmt.Errorf("rps: snapshot view of node %d holds age %d, outside [0,%d]", i, age, math.MaxInt32)
			}
			row[j] = entry{id: int32(id), age: int32(age)}
		}
		lens[i] = uint8(ln)
	}
	if err := r.Err(); err != nil {
		return err
	}
	p.pages, p.lens = pages, lens
	return nil
}
