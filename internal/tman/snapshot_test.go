package tman

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
)

// encodeViews writes a tman section holding views, entry by entry, the
// way SnapshotState does; crafted sections start from a real one.
func encodeViews(views [][]int) []byte {
	var w snap.Writer
	w.Len(len(views))
	for _, v := range views {
		w.Len(len(v))
		for _, id := range v {
			w.Int(id)
		}
	}
	return w.Bytes()
}

func snapshotOf(p *Protocol) []byte {
	var w snap.Writer
	p.SnapshotState(&w)
	return w.Bytes()
}

// TestRestoreRefusesCraftedSections: a section must name only nodes in
// [0, n), n being its own view count, no view may hold its own node, and
// no view may hold more entries than a row keeps at rest. Each refusal leaves the protocol as it was,
// and an honest section round-trips byte for byte.
func TestRestoreRefusesCraftedSections(t *testing.T) {
	const w, h = 8, 8
	n := newTestNet(t, 4, space.TorusForGrid(w, h, 1), space.TorusGrid(w, h, 1))
	n.engine.RunRounds(5)
	saved := snapshotOf(n.tman)
	views := make([][]int, w*h)
	for id := range views {
		for _, v := range n.tman.View(sim.NodeID(id)) {
			views[id] = append(views[id], int(v))
		}
	}
	if !bytes.Equal(encodeViews(views), saved) {
		t.Fatal("encodeViews does not reproduce SnapshotState's bytes")
	}
	// crafted returns views with the entries of node 3's view replaced by
	// fill, or node 3's view grown to ln entries of fill when ln > 0.
	crafted := func(fill int, ln int) []byte {
		out := make([][]int, len(views))
		copy(out, views)
		v := make([]int, max(ln, len(views[3])))
		for i := range v {
			v[i] = fill
		}
		out[3] = v
		return encodeViews(out)
	}
	everyEntry := func(fill int) []byte {
		out := make([][]int, len(views))
		for id, v := range views {
			out[id] = make([]int, len(v))
			for i := range v {
				out[id][i] = fill
			}
		}
		return encodeViews(out)
	}
	cases := []struct {
		name    string
		section []byte
		want    string
	}{
		{"every entry 1<<20", everyEntry(1 << 20), "outside [0,64)"},
		{"entry n", crafted(w*h, 0), "outside [0,64)"},
		{"entry -1", crafted(-1, 0), "outside [0,64)"},
		{"entry 1<<32+5 (aliases node 5 as int32)", crafted(1<<32+5, 0), "outside [0,64)"},
		{"view one past a row at rest", crafted(5, restCap+1), "more than the 100 a row keeps"},
		{"view past the stride", crafted(5, stride+1), "more than the 100 a row keeps"},
		{"entry names its own node", crafted(3, 0), "node 3 holds the node itself"},
		{"last view cut short", saved[:len(saved)-4], "implausible count"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := n.tman.views
			err := n.tman.RestoreState(snap.NewReader(c.section))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("RestoreState = %v, want an error containing %q", err, c.want)
			}
			if &n.tman.views[0] != &before[0] || !bytes.Equal(snapshotOf(n.tman), saved) {
				t.Fatal("a refused restore changed the protocol")
			}
		})
	}
	if err := n.tman.RestoreState(snap.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotOf(n.tman), saved) {
		t.Fatal("an honest section does not round-trip")
	}
}

// TestRestoreLyingCountStaysCheap: a section that claims more views than
// its bytes can hold fails at the count itself, before any view or row
// is sized from it, and leaves the protocol unchanged.
func TestRestoreLyingCountStaysCheap(t *testing.T) {
	const w, h = 8, 8
	n := newTestNet(t, 4, space.TorusForGrid(w, h, 1), space.TorusGrid(w, h, 1))
	n.engine.RunRounds(3)
	saved := snapshotOf(n.tman)

	var sw snap.Writer
	sw.Len(math.MaxInt32) // 2³¹−1 views claimed, none present
	sw.Len(0)
	before := n.tman.views
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := n.tman.RestoreState(snap.NewReader(sw.Bytes()))
	runtime.ReadMemStats(&m1)
	if err == nil || !strings.Contains(err.Error(), "implausible count") {
		t.Fatalf("RestoreState = %v, want the count refused", err)
	}
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 64<<10 {
		t.Errorf("refusing a lying count allocated %d B", b)
	}
	if &n.tman.views[0] != &before[0] || !bytes.Equal(snapshotOf(n.tman), saved) {
		t.Fatal("a refused restore changed the protocol")
	}
}

// TestInitNodeRefusesIDsPastInt32: views hold int32 ids, so InitNode
// refuses an id past math.MaxInt32 with a panic naming the limit, before
// it grows any table.
func TestInitNodeRefusesIDsPastInt32(t *testing.T) {
	n := newTestNet(t, 1, space.TorusForGrid(4, 4, 1), space.TorusGrid(4, 4, 1))
	views, pages := len(n.tman.views), n.tman.rows.pages
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2147483647") {
			t.Fatalf("InitNode(1<<31) panicked with %q, want the limit named", msg)
		}
		if len(n.tman.views) != views || len(n.tman.rankedAt) != views || n.tman.rows.pages != pages {
			t.Fatal("InitNode grew its tables before refusing the id")
		}
	}()
	n.tman.InitNode(n.engine, 1<<31)
}

// FuzzRestoreState: no byte string makes RestoreState panic. A section it
// accepts leaves every view in a row of stride ids, within restCap, in
// [0, n) and free of its own node, and re-snapshots to the bytes it
// consumed; a section it refuses leaves the protocol as it was.
func FuzzRestoreState(f *testing.F) {
	const w, h = 8, 8
	pts := space.TorusGrid(w, h, 1)
	sampler := rps.New(rps.Config{})
	tm, err := New(Config{Space: space.TorusForGrid(w, h, 1), Sampler: sampler,
		Position: func(id sim.NodeID) space.Point { return pts[id] }})
	if err != nil {
		f.Fatal(err)
	}
	e := sim.New(4, sampler, tm)
	e.AddNodes(w * h)
	e.RunRounds(5)
	honest := snapshotOf(tm)
	f.Add(honest)
	f.Add(encodeViews([][]int{{1}, {1}}))                                // node 1 holds itself
	f.Add(encodeViews([][]int{slices.Repeat([]int{1}, restCap+1), {0}})) // one past a row at rest
	f.Add(honest[:len(honest)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		before := snapshotOf(tm)
		r := snap.NewReader(data)
		if err := tm.RestoreState(r); err != nil {
			if !bytes.Equal(snapshotOf(tm), before) {
				t.Fatalf("refused restore (%v) changed the protocol", err)
			}
			return
		}
		for id, v := range tm.views {
			if len(v) > restCap || cap(v) != stride {
				t.Fatalf("restored view of node %d holds %d entries in a row of %d", id, len(v), cap(v))
			}
			for _, x := range v {
				if x < 0 || int(x) >= len(tm.views) || int(x) == id {
					t.Fatalf("restored view of node %d holds node %d (n = %d)", id, x, len(tm.views))
				}
			}
		}
		if got, used := snapshotOf(tm), data[:len(data)-r.Remaining()]; !bytes.Equal(got, used) {
			t.Fatalf("accepted section re-snapshots to %d bytes, consumed %d", len(got), len(used))
		}
	})
}
