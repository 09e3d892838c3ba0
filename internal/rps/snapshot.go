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
	w.Len(len(p.views))
	for _, v := range p.views {
		w.Len(len(v))
		for _, e := range v {
			w.Int(int(e.id))
			w.Int(e.age)
		}
	}
}

// RestoreState implements sim.Snapshotter. The views are carved from one
// arena and keep exact capacity, so an append to one reallocates it. An
// entry outside [0, n), where n is the section's view count, is refused,
// and on any error the protocol is left as it was.
func (p *Protocol) RestoreState(r *snap.Reader) error {
	n := r.Len(8)
	views := make([][]entry, n)
	var arena snap.Arena[entry]
	for i := range views {
		ln := r.Len(16)
		v := arena.Take(ln)
		for j := range v {
			id := r.Int()
			if id < 0 || id >= n {
				return fmt.Errorf("rps: snapshot view of node %d holds node %d, outside [0,%d)", i, id, n)
			}
			v[j].id = sim.NodeID(id)
			v[j].age = r.Int()
		}
		views[i] = v
	}
	if err := r.Err(); err != nil {
		return err
	}
	p.views = views
	return nil
}
