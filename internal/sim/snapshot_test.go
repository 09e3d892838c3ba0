package sim

import (
	"fmt"
	"runtime"
	"testing"

	"polystyrene/internal/snap"
)

// snapLayer is a minimal stateful protocol: every step increments the
// node's counter by a value drawn from the engine stream, so both layer
// state and RNG state must survive a round trip for streams to match.
type snapLayer struct {
	name   string
	counts []int
}

func (l *snapLayer) Name() string { return l.name }
func (l *snapLayer) InitNode(e *Engine, id NodeID) {
	for len(l.counts) <= int(id) {
		l.counts = append(l.counts, 0)
	}
}
func (l *snapLayer) Step(e *Engine, id NodeID) {
	l.counts[id] += e.Rand().Intn(100)
	e.Charge(1)
}

func (l *snapLayer) SnapshotState(w *snap.Writer) {
	w.Len(len(l.counts))
	for _, c := range l.counts {
		w.Int(c)
	}
}

func (l *snapLayer) RestoreState(r *snap.Reader) error {
	n := r.Len(8)
	counts := make([]int, n)
	for i := range counts {
		counts[i] = r.Int()
	}
	if err := r.Err(); err != nil {
		return err
	}
	l.counts = counts
	return nil
}

// statelessLayer carries nothing between rounds and does not implement
// Snapshotter.
type statelessLayer struct{}

func (statelessLayer) Name() string              { return "stateless" }
func (statelessLayer) InitNode(*Engine, NodeID)  {}
func (statelessLayer) Step(e *Engine, id NodeID) { e.Charge(2) }

// snapshotState serializes e's run state, failing the test on error.
func snapshotState(t *testing.T, e *Engine) []byte {
	t.Helper()
	var w snap.Writer
	if err := e.SnapshotState(&w); err != nil {
		t.Fatalf("SnapshotState: %v", err)
	}
	return w.Bytes()
}

// restoreState restores e from a SnapshotState image that must be
// consumed exactly.
func restoreState(e *Engine, b []byte) error {
	r := snap.NewReader(b)
	if err := e.RestoreState(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%d trailing bytes", r.Remaining())
	}
	return nil
}

func TestEngineSnapshotRoundTrip(t *testing.T) {
	la := &snapLayer{name: "counter"}
	e := New(5, la, statelessLayer{})
	e.AddNodes(20)
	e.RunRounds(4)
	e.Kill(3)
	e.Kill(11)
	e.RunRounds(3)

	state := snapshotState(t, e)

	lb := &snapLayer{name: "counter"}
	e2 := New(0, lb, statelessLayer{})
	if err := restoreState(e2, state); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if e2.Round() != e.Round() || e2.NumNodes() != e.NumNodes() || e2.NumLive() != e.NumLive() {
		t.Fatalf("restored engine shape (round=%d nodes=%d live=%d) != original (%d, %d, %d)",
			e2.Round(), e2.NumNodes(), e2.NumLive(), e.Round(), e.NumNodes(), e.NumLive())
	}
	if e2.Alive(3) || e2.Alive(11) || !e2.Alive(0) {
		t.Fatal("restored liveness diverged")
	}
	if got, want := e2.Meter().TotalCost("counter"), e.Meter().TotalCost("counter"); got != want {
		t.Fatalf("restored meter cost %d, want %d", got, want)
	}

	// Both engines must continue identically: same layer state, same
	// RNG stream, same meter.
	e.RunRounds(5)
	e2.RunRounds(5)
	for id := range la.counts {
		if la.counts[id] != lb.counts[id] {
			t.Fatalf("node %d counter diverged after resume: %d != %d", id, la.counts[id], lb.counts[id])
		}
	}
	if a, b := e.Rand().Uint64(), e2.Rand().Uint64(); a != b {
		t.Fatalf("RNG streams diverged after resume: %d != %d", a, b)
	}
	for r := 0; r < e.Round(); r++ {
		if a, b := e.Meter().TotalRoundCost(r), e2.Meter().TotalRoundCost(r); a != b {
			t.Fatalf("round %d meter cost diverged: %d != %d", r, a, b)
		}
	}
}

func TestEngineRestoreRejectsLayerMismatch(t *testing.T) {
	e := New(1, &snapLayer{name: "counter"})
	e.AddNodes(4)
	e.RunRounds(2)
	state := snapshotState(t, e)

	other := New(0, &snapLayer{name: "renamed"})
	if err := restoreState(other, state); err == nil {
		t.Fatal("restore into a different layer stack accepted")
	}
	fewer := New(0)
	if err := restoreState(fewer, state); err == nil {
		t.Fatal("restore into an engine with fewer layers accepted")
	}
}

// TestEngineRestoreRejectsCorruption cuts the state image short at
// several points; bit flips inside an intact image are the checksummed
// envelope's to catch (internal/snap's envelope tests).
func TestEngineRestoreRejectsCorruption(t *testing.T) {
	e := New(1, &snapLayer{name: "counter"})
	e.AddNodes(4)
	e.RunRounds(2)
	good := snapshotState(t, e)
	target := New(0, &snapLayer{name: "counter"})
	for _, cut := range []int{0, 9, len(good) / 2, len(good) - 1} {
		if err := restoreState(target, good[:cut]); err == nil {
			t.Fatalf("state cut at %d of %d bytes accepted", cut, len(good))
		}
	}
	if err := restoreState(target, good); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
}

// TestEngineRestoreRefusesNodeCountPastItsBytes: a body that declares
// 4,000,000 nodes but whose one stateful section holds no node is refused
// before the engine sizes anything by that count. It allocates at most a
// small multiple of its own length and leaves the engine as it was.
func TestEngineRestoreRefusesNodeCountPastItsBytes(t *testing.T) {
	var w snap.Writer
	for range 4 {
		w.U64(1) // RNG state
	}
	w.Int(3)         // round
	w.I32(4_000_000) // node count
	w.Count(0)       // live set
	w.Len(0)         // meter ledgers
	w.Len(1)         // layers
	w.String("counter")
	w.Bool(true)
	mark := w.BeginSection()
	w.Len(0) // the counter layer's counts
	w.EndSection(mark)
	body := w.Bytes()

	e := New(1, &snapLayer{name: "counter"})
	e.AddNodes(4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := restoreState(e, body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a %d-byte body declaring 4,000,000 nodes was accepted", len(body))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(body)) {
		t.Fatalf("refusing a %d-byte body allocated %d bytes (%v)", len(body), alloc, err)
	}
	if e.NumNodes() != 4 || e.Round() != 0 {
		t.Fatalf("refused restore left %d nodes at round %d, want 4 at round 0", e.NumNodes(), e.Round())
	}
}
