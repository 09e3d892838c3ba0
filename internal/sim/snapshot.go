package sim

import (
	"fmt"

	"polystyrene/internal/snap"
)

// Snapshotter is implemented by protocol layers whose per-node state must
// survive a checkpoint. A layer that carries no state between rounds
// (pure scratch, caches rebuilt at plan time) simply doesn't implement
// it, and the engine records an empty section for it.
//
// SnapshotState must write every bit of state that influences future
// rounds, in a deterministic order (sort map iterations), and hold at
// least one byte for each node of the engine: the engine refuses a
// snapshot whose node count a stateful section is too short for.
// RestoreState
// reads the same stream back into a layer that has already been
// constructed and InitNode'd for the same configuration; it must fully
// overwrite — never merge with — the state those init paths produced.
type Snapshotter interface {
	SnapshotState(w *snap.Writer)
	RestoreState(r *snap.Reader) error
}

// SnapshotState serializes the complete run state of the engine — RNG,
// round counter, liveness sets, meter ledgers and every layer's section —
// into w.
//
// Worker-pool configuration (exchange parallelism, tail coalescing) and
// registered observers are deliberately not part of a snapshot: they
// describe the engine and its harness, not the simulated state, and the
// batched scheduler re-derives all per-step randomness from the engine
// generator, so restoring the RNG state alone reproduces batched
// trajectories byte-identically at any worker count.
func (e *Engine) SnapshotState(w *snap.Writer) error {
	for _, s := range e.rng.State() {
		w.U64(s)
	}
	w.Int(e.round)
	w.I32(len(e.alive))
	// The dense live set is order-sensitive: RandomLive indexes it, and
	// Kill swap-removes, so the exact ordering is part of the trajectory.
	w.Count(len(e.live))
	for _, id := range e.live {
		w.I32(int(id))
	}
	e.meter.snapshotState(w)
	w.Len(len(e.layers))
	for _, l := range e.layers {
		w.String(l.Name())
		if s, ok := l.(Snapshotter); ok {
			w.Bool(true)
			mark := w.BeginSection()
			s.SnapshotState(w)
			w.EndSection(mark)
		} else {
			w.Bool(false)
		}
	}
	return nil
}

// stateHeader is the head of an engine state: the RNG state, the round
// and the node count, as SnapshotState writes them.
type stateHeader struct {
	rng   [4]uint64
	round int
	nodes int
}

// readHeader reads the head of an engine state from r.
func readHeader(r *snap.Reader) stateHeader {
	var h stateHeader
	for i := range h.rng {
		h.rng[i] = r.U64()
	}
	h.round = r.Int()
	h.nodes = r.I32()
	return h
}

// SnapshotNodeCount returns the node count declared by the engine state r
// is positioned at, as RestoreState reads it, or -1 when r is too short to
// hold one. It reads a copy of r, so r does not advance: an owner that
// keeps per-node state beside the engine can check that state against the
// count before the engine restores anything.
func SnapshotNodeCount(r snap.Reader) int {
	h := readHeader(&r)
	if r.Err() != nil {
		return -1
	}
	return h.nodes
}

// RestoreState is the inverse of SnapshotState. The engine must already
// be configured with the same layer stack the snapshot was taken from
// (layers are matched by position and name); observers are left
// registered, and the RNG is mutated in place so contexts aliasing it
// keep working. The snapshot is parsed and
// validated in full before any engine state is touched. Each layer's
// section reader carries the snapshot's node count (snap.Reader.SetNodes),
// so a layer refuses a section that holds state for a different number of
// nodes. Before the engine sizes anything by the node count, it refuses a
// count larger than the byte length of any stateful section (each holds
// at least a byte a node), so a body that declares more nodes than it
// carries costs no allocation in proportion to the count. An engine none
// of whose layers carries state has no section to bound the count by.
func (e *Engine) RestoreState(r *snap.Reader) error {
	// Phase 1: parse everything into temporaries.
	h := readHeader(r)
	round, numNodes := h.round, h.nodes
	nLive := r.Count(4)
	live := make([]NodeID, nLive)
	for i := range live {
		live[i] = NodeID(r.I32())
	}
	var meter meterState
	meter.parse(r)
	nLayers := r.Len(2)
	type layerSection struct {
		name string
		has  bool
		body snap.Reader
	}
	sections := make([]layerSection, nLayers)
	for i := range sections {
		sections[i].name = r.String()
		sections[i].has = r.Bool()
		if sections[i].has {
			sections[i].body = *r.Section()
		}
	}
	if err := r.Err(); err != nil {
		return err
	}

	// Phase 2: validate against this engine's configuration.
	if round < 0 || numNodes < 0 {
		return fmt.Errorf("sim: snapshot has negative round (%d) or node count (%d)", round, numNodes)
	}
	for _, s := range sections {
		if s.has && numNodes > s.body.Remaining() {
			return fmt.Errorf("sim: snapshot declares %d nodes, but layer %q's section holds only %d bytes", numNodes, s.name, s.body.Remaining())
		}
	}
	seen := make([]bool, numNodes)
	for _, id := range live {
		if id < 0 || int(id) >= numNodes {
			return fmt.Errorf("sim: snapshot live ID %d out of range [0,%d)", id, numNodes)
		}
		if seen[id] {
			return fmt.Errorf("sim: snapshot live ID %d duplicated", id)
		}
		seen[id] = true
	}
	if len(sections) != len(e.layers) {
		return fmt.Errorf("sim: snapshot has %d layers, engine has %d", len(sections), len(e.layers))
	}
	for i, s := range sections {
		if s.name != e.layers[i].Name() {
			return fmt.Errorf("sim: snapshot layer %d is %q, engine has %q", i, s.name, e.layers[i].Name())
		}
		if _, ok := e.layers[i].(Snapshotter); ok != s.has {
			return fmt.Errorf("sim: snapshot layer %q state presence mismatch", s.name)
		}
	}

	// Phase 3: overwrite engine state.
	e.rng.SetState(h.rng)
	e.round = round
	e.alive = e.alive[:0]
	e.livePos = e.livePos[:0]
	for i := 0; i < numNodes; i++ {
		e.alive = append(e.alive, false)
		e.livePos = append(e.livePos, -1)
	}
	e.live = e.live[:0]
	for i, id := range live {
		e.alive[id] = true
		e.livePos[id] = int32(i)
		e.live = append(e.live, id)
	}
	meter.apply(e.meter)
	e.curLayer = -1
	e.layerLedger = e.layerLedger[:0]
	for _, l := range e.layers {
		e.layerLedger = append(e.layerLedger, e.meter.ledgerIndex(l.Name()))
	}
	for i := range sections {
		s := &sections[i]
		if !s.has {
			continue
		}
		s.body.SetNodes(numNodes)
		if err := e.layers[i].(Snapshotter).RestoreState(&s.body); err != nil {
			return fmt.Errorf("sim: restoring layer %q: %w", s.name, err)
		}
		if err := snap.CloseSection(s.name, &s.body); err != nil {
			return err
		}
	}
	return nil
}

// meterState is the parsed-but-not-applied image of a Meter.
type meterState struct {
	names   []string
	charged []bool
	ledgers [][]int
}

func (m *Meter) snapshotState(w *snap.Writer) {
	// Slot order matters: layerLedger indices are rebuilt by registering
	// names in this exact order on restore.
	w.Len(len(m.names))
	for i, name := range m.names {
		w.String(name)
		w.Bool(m.charged[i])
		w.Len(len(m.ledgers[i]))
		for _, v := range m.ledgers[i] {
			w.Int(v)
		}
	}
}

func (ms *meterState) parse(r *snap.Reader) {
	n := r.Len(2)
	ms.names = make([]string, 0, n)
	ms.charged = make([]bool, 0, n)
	ms.ledgers = make([][]int, 0, n)
	for i := 0; i < n; i++ {
		ms.names = append(ms.names, r.String())
		ms.charged = append(ms.charged, r.Bool())
		ln := r.Len(8)
		ledger := make([]int, 0, ln)
		for j := 0; j < ln; j++ {
			ledger = append(ledger, r.Int())
		}
		ms.ledgers = append(ms.ledgers, ledger)
	}
}

func (ms *meterState) apply(m *Meter) {
	clear(m.index)
	m.names = m.names[:0]
	m.charged = m.charged[:0]
	old := m.ledgers
	m.ledgers = m.ledgers[:0]
	for i, name := range ms.names {
		var ledger []int
		if i < len(old) {
			ledger = append(old[i][:0], ms.ledgers[i]...)
		} else {
			ledger = ms.ledgers[i]
		}
		m.index[name] = i
		m.names = append(m.names, name)
		m.charged = append(m.charged, ms.charged[i])
		m.ledgers = append(m.ledgers, ledger)
	}
}
