package fd

import (
	"sort"

	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/xrand"
)

// Snapshot support. Detectors are not engine layers — they live inside
// the Polystyrene layer's configuration — so they implement the same
// sim.Snapshotter contract and the core layer embeds their section in its
// own. Perfect is stateless and deliberately implements nothing.

var _ sim.Snapshotter = (*Delayed)(nil)
var _ sim.Snapshotter = (*Probabilistic)(nil)

// SnapshotState implements sim.Snapshotter: the first-observed death
// rounds, in sorted node order (map iteration order must never leak into
// a snapshot).
func (d *Delayed) SnapshotState(w *snap.Writer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]sim.NodeID, 0, len(d.deathRound))
	for id := range d.deathRound {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Count(len(ids))
	for _, id := range ids {
		w.I32(int(id))
		w.Int(d.deathRound[id])
	}
}

// RestoreState implements sim.Snapshotter.
func (d *Delayed) RestoreState(r *snap.Reader) error {
	n := r.Count(12)
	m := make(map[sim.NodeID]int, n)
	for i := 0; i < n; i++ {
		id := sim.NodeID(r.I32())
		m[id] = r.Int()
	}
	if err := r.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	d.deathRound = m
	d.mu.Unlock()
	return nil
}

// SnapshotState implements sim.Snapshotter: the private random stream and
// the per-(observer, target) detection set, sorted.
func (d *Probabilistic) SnapshotState(w *snap.Writer) {
	var st [4]uint64
	if d.rng != nil {
		st = d.rng.State()
	}
	for _, s := range st {
		w.U64(s)
	}
	ks := make([]pair, 0, len(d.detected))
	for k := range d.detected {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].observer != ks[j].observer {
			return ks[i].observer < ks[j].observer
		}
		return ks[i].target < ks[j].target
	})
	w.Count(len(ks))
	for _, k := range ks {
		w.I32(int(k.observer))
		w.I32(int(k.target))
	}
}

// RestoreState implements sim.Snapshotter.
func (d *Probabilistic) RestoreState(r *snap.Reader) error {
	var st [4]uint64
	for i := range st {
		st[i] = r.U64()
	}
	n := r.Count(8)
	m := make(map[pair]bool, n)
	for i := 0; i < n; i++ {
		k := pair{observer: sim.NodeID(r.I32()), target: sim.NodeID(r.I32())}
		m[k] = true
	}
	if err := r.Err(); err != nil {
		return err
	}
	if d.rng == nil {
		d.rng = xrand.New(0)
	}
	d.rng.SetState(st)
	d.detected = m
	return nil
}
