package tman

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// liveHeap returns the GC-settled live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestViewRowBytesPerNode: a node's view costs its row of restCap int32
// ids (400 B), its row header and its ranking stamp, and nothing per node
// besides.
func TestViewRowBytesPerNode(t *testing.T) {
	const w, h = 128, 64
	const n = w * h
	sampler := rps.New(rps.Config{})
	e := sim.New(1, sampler)
	e.AddNodes(n)
	pts := space.TorusGrid(w, h, 1)
	tm, err := New(Config{Space: space.TorusForGrid(w, h, 1), Sampler: sampler,
		Position: func(id sim.NodeID) space.Point { return pts[id] }})
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	for id := range sim.NodeID(n) {
		tm.InitNode(e, id)
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(e)
	perNode := float64(grown) / n
	t.Logf("%d nodes: live heap +%d B, %.1f B/node (row %d B)", n, grown, perNode, restCap*int(unsafe.Sizeof(int32(0))))
	if perNode > 440 {
		t.Fatalf("views cost %.1f B/node, want at most 440", perNode)
	}
	if got := len(tm.views[n-1]); got != initDegree {
		t.Fatalf("last joiner seeded %d entries, want %d", got, initDegree)
	}
}

// TestStepDropsAFreshVictim: while nobody has died, purges skip their
// scan; after one Kill, the next step of every node whose view holds the
// victim drops it.
func TestStepDropsAFreshVictim(t *testing.T) {
	const w, h = 16, 16
	n := newTestNet(t, 6, space.TorusForGrid(w, h, 1), space.TorusGrid(w, h, 1))
	n.engine.RunRounds(5)
	victim := int32(17)
	var holders []sim.NodeID
	for _, id := range n.engine.LiveIDs() {
		if slices.Contains(n.tman.views[id], victim) {
			holders = append(holders, id)
		}
	}
	if len(holders) < 5 {
		t.Fatalf("only %d views hold node %d", len(holders), victim)
	}
	n.engine.Kill(sim.NodeID(victim))
	for _, x := range holders {
		n.tman.Step(n.engine, x)
		if slices.Contains(n.tman.views[x], victim) {
			t.Fatalf("node %d kept crashed node %d after stepping", x, victim)
		}
	}
}

// TestEmptyViewReseedsWhileNoneDied: the first node joins an empty system
// with an empty view; with nobody dead its purge skips the scan but still
// re-seeds the empty view from the sampling layer.
func TestEmptyViewReseedsWhileNoneDied(t *testing.T) {
	const w, h = 8, 8
	n := newTestNet(t, 2, space.TorusForGrid(w, h, 1), space.TorusGrid(w, h, 1))
	if len(n.tman.views[0]) != 0 {
		t.Fatalf("node 0 joined alone but holds %d entries", len(n.tman.views[0]))
	}
	n.sampler.Step(n.engine, 0) // bootstraps node 0's sampling view
	n.tman.purgeDead(n.engine.SeqCtx(), 0)
	if got := len(n.tman.views[0]); got != initDegree {
		t.Fatalf("node 0's empty view was re-seeded with %d entries, want %d", got, initDegree)
	}
}
