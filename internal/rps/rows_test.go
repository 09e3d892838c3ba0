package rps

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"polystyrene/internal/sim"
)

// liveHeap returns the GC-settled live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestViewRowBytesPerNode: a node's view costs its 160 B row plus its
// one-byte length and nothing per node besides. The live heap grows by at
// most 170 B a node over 8,192 InitNode calls, where per-node slices of
// 16-byte entries cost over 340 B.
func TestViewRowBytesPerNode(t *testing.T) {
	const n = 8192
	e := sim.New(1)
	e.AddNodes(n)
	p := New(Config{})
	before := liveHeap()
	for id := range sim.NodeID(n) {
		p.InitNode(e, id)
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(e)
	perNode := float64(grown) / n
	t.Logf("%d nodes: live heap +%d B, %.1f B/node (row %d B)", n, grown, perNode, viewSize*int(unsafe.Sizeof(entry{})))
	if perNode > 170 {
		t.Fatalf("views cost %.1f B/node, want at most 170", perNode)
	}
	if got := p.lens[n-1]; got != viewSize {
		t.Fatalf("last joiner bootstrapped %d entries, want %d", got, viewSize)
	}
}

// rowAddrs returns the address of every node's row.
func rowAddrs(p *Protocol) []uintptr {
	out := make([]uintptr, len(p.lens))
	for id := range out {
		out[id] = uintptr(unsafe.Pointer(unsafe.SliceData(p.view(sim.NodeID(id)))))
	}
	return out
}

// TestCrashWaveRebootstrapAllocsNothing: after a crash wave that leaves
// survivors with no live link, the next round re-bootstraps those views
// in their rows, allocates nothing, and leaves every row where it was.
func TestCrashWaveRebootstrapAllocsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("AllocsPerRun is unreliable under -race; the race step runs -short")
	}
	e, p := newNetwork(t, 3, 2000)
	e.RunRounds(10)
	addrs := rowAddrs(p)
	for _, id := range slices.Clone(e.LiveIDs()) {
		if id%25 != 0 {
			e.Kill(id)
		}
	}
	stranded := 0
	for _, id := range e.LiveIDs() {
		if !slices.ContainsFunc(p.View(id), e.Alive) {
			stranded++
		}
	}
	if stranded == 0 {
		t.Fatal("no survivor lost every link; the round would not re-bootstrap")
	}
	if avg := testing.AllocsPerRun(1, func() { e.RunRounds(1) }); avg != 0 {
		t.Errorf("the round after a crash wave allocates %.0f objects, want 0", avg)
	}
	for _, id := range e.LiveIDs() {
		if !slices.ContainsFunc(p.View(id), e.Alive) {
			t.Fatalf("node %d still has no live link after the round", id)
		}
	}
	if !slices.Equal(rowAddrs(p), addrs) {
		t.Fatal("a row moved")
	}
	t.Logf("%d of %d survivors re-bootstrapped in place", stranded, e.NumLive())
}

// TestStepDropsAFreshVictim: while nobody has died, purges skip their
// scan; after one Kill, the next step of every node whose view holds the
// victim drops it.
func TestStepDropsAFreshVictim(t *testing.T) {
	e, p := newNetwork(t, 6, 200)
	e.RunRounds(5)
	victim := sim.NodeID(17)
	var holders []sim.NodeID
	for _, id := range e.LiveIDs() {
		if slices.Contains(p.View(id), victim) {
			holders = append(holders, id)
		}
	}
	if len(holders) < 5 {
		t.Fatalf("only %d views hold node %d", len(holders), victim)
	}
	e.Kill(victim)
	for _, x := range holders {
		p.Step(e, x)
		if slices.Contains(p.View(x), victim) {
			t.Fatalf("node %d kept crashed node %d after stepping", x, victim)
		}
	}
}

// TestInitNodeRefusesIDsPastInt32: views hold int32 ids, so InitNode
// refuses an id past math.MaxInt32 with a panic naming the limit, before
// it grows any table.
func TestInitNodeRefusesIDsPastInt32(t *testing.T) {
	e, p := newNetwork(t, 1, 16)
	views, pages := len(p.lens), len(p.pages)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2147483647") {
			t.Fatalf("InitNode(1<<31) panicked with %q, want the limit named", msg)
		}
		if len(p.lens) != views || len(p.pages) != pages {
			t.Fatal("InitNode grew its tables before refusing the id")
		}
	}()
	p.InitNode(e, 1<<31)
}
