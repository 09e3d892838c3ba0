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

// sectionWriter writes a section's IDs and counts in 4 bytes, as version
// 3 does, or with v2 set in the 8 bytes version 2 gave them.
type sectionWriter struct {
	snap.Writer
	v2 bool
}

func (w *sectionWriter) id(v int) {
	if w.v2 {
		w.Int(v)
	} else {
		w.I32(v)
	}
}

func (w *sectionWriter) count(n int) {
	if w.v2 {
		w.Len(n)
	} else {
		w.Count(n)
	}
}

// readerOf returns a reader over the section b of version 2 or, without
// v2, of the current version (whose widths version 3 also wrote).
func readerOf(b []byte, v2 bool) *snap.Reader {
	if v2 {
		return snap.NewVersionReader(b, 2)
	}
	return snap.NewReader(b)
}

// encodeViews writes a tman section holding views, entry by entry, the
// way SnapshotState does, in version 3 or, with v2 set, in version 2,
// whose 8-byte fields can hold an entry past int32; crafted sections
// start from a real one.
func encodeViews(views [][]int, v2 bool) []byte {
	w := sectionWriter{v2: v2}
	w.count(len(views))
	for _, v := range views {
		w.count(len(v))
		for _, id := range v {
			w.id(id)
		}
	}
	return w.Bytes()
}

// viewsOf returns p's views as ints.
func viewsOf(p *Protocol) [][]int {
	views := make([][]int, len(p.views))
	for id, v := range p.views {
		for _, x := range v {
			views[id] = append(views[id], int(x))
		}
	}
	return views
}

func snapshotOf(p *Protocol) []byte {
	var w snap.Writer
	p.SnapshotState(&w)
	return w.Bytes()
}

// TestRestoreRefusesCraftedSections: a section must name only nodes in
// [0, n), n being its own view count, no view may hold its own node, and
// no view may hold more entries than a row keeps at rest. A version 2
// section's 8-byte entry outside int32 is refused by the reader. Each
// refusal leaves the protocol as it was, and an honest section
// round-trips byte for byte from either version.
func TestRestoreRefusesCraftedSections(t *testing.T) {
	const w, h = 8, 8
	n := newTestNet(t, 4, space.TorusForGrid(w, h, 1), space.TorusGrid(w, h, 1))
	n.engine.RunRounds(5)
	saved := snapshotOf(n.tman)
	views := viewsOf(n.tman)
	if !bytes.Equal(encodeViews(views, false), saved) {
		t.Fatal("encodeViews does not reproduce SnapshotState's bytes")
	}
	// crafted returns views with the entries of node 3's view replaced by
	// fill, or node 3's view grown to ln entries of fill when ln > 0.
	crafted := func(fill int, ln int) [][]int {
		out := make([][]int, len(views))
		copy(out, views)
		v := make([]int, max(ln, len(views[3])))
		for i := range v {
			v[i] = fill
		}
		out[3] = v
		return out
	}
	everyEntry := func(fill int) [][]int {
		out := make([][]int, len(views))
		for id, v := range views {
			out[id] = make([]int, len(v))
			for i := range v {
				out[id][i] = fill
			}
		}
		return out
	}
	// cut is the honest section, in either version, without its last 4
	// bytes.
	cut := func(v2 bool) []byte {
		b := encodeViews(views, v2)
		return b[:len(b)-4]
	}
	cases := []struct {
		name    string
		section func(v2 bool) []byte
		v2Only  bool   // the entry does not fit version 3's 4-byte field
		want    string // the error, and for version 2 too unless wantV2 is set
		wantV2  string
	}{
		{"every entry 1<<20", encoded(everyEntry(1 << 20)), false, "outside [0,64)", ""},
		{"entry n", encoded(crafted(w*h, 0)), false, "outside [0,64)", ""},
		{"entry -1", encoded(crafted(-1, 0)), false, "outside [0,64)", ""},
		{"entry 1<<32+5 (aliases node 5 as int32)", encoded(crafted(1<<32+5, 0)), true, "value 4294967301 at offset", ""},
		{"view one past a row at rest", encoded(crafted(5, restCap+1)), false, "more than the 100 a row keeps", ""},
		{"view past the stride", encoded(crafted(5, restCap+1)), false, "more than the 100 a row keeps", ""},
		{"entry names its own node", encoded(crafted(3, 0)), false, "node 3 holds the node itself", ""},
		// The view's count bounds it at 4 bytes an entry, which a cut
		// version 2 view of 8-byte entries can still meet.
		{"last view cut short", cut, false, "implausible count", "truncated body"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, v2 := range []bool{false, true} {
				if !v2 && c.v2Only {
					continue
				}
				want := c.want
				if v2 && c.wantV2 != "" {
					want = c.wantV2
				}
				before := n.tman.views
				err := n.tman.RestoreState(readerOf(c.section(v2), v2))
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("v2=%v: RestoreState = %v, want an error containing %q", v2, err, want)
				}
				if &n.tman.views[0] != &before[0] || !bytes.Equal(snapshotOf(n.tman), saved) {
					t.Fatalf("v2=%v: a refused restore changed the protocol", v2)
				}
			}
		})
	}
	for _, v2 := range []bool{false, true} {
		if err := n.tman.RestoreState(readerOf(encodeViews(views, v2), v2)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotOf(n.tman), saved) {
			t.Fatalf("v2=%v: an honest section does not round-trip", v2)
		}
	}
}

// encoded returns the section holding views in either version.
func encoded(views [][]int) func(v2 bool) []byte {
	return func(v2 bool) []byte { return encodeViews(views, v2) }
}

// TestEngineRestoreRefusesSectionOfOtherNodeCount: a 64-node engine's
// snapshot whose T-Man section holds 65 views, node 0's naming node 64, is
// refused before T-Man applies it; accepted, the next neighbour query of
// node 0 would index node 64's position in a table of 64.
func TestEngineRestoreRefusesSectionOfOtherNodeCount(t *testing.T) {
	const w, h = 8, 8
	src := newTestNet(t, 4, space.TorusForGrid(w, h, 1), space.TorusGrid(w, h, 1))
	src.engine.RunRounds(3)
	views := append(viewsOf(src.tman), []int{0})
	views[0] = append([]int{w * h}, views[0][1:]...)
	// The layer alone, which knows no engine, takes the section; the
	// engine's snapshot then carries it beside a node count of 64.
	if err := src.tman.RestoreState(snap.NewReader(encodeViews(views, false))); err != nil {
		t.Fatal(err)
	}
	var sw snap.Writer
	if err := src.engine.SnapshotState(&sw); err != nil {
		t.Fatal(err)
	}

	dst := newTestNet(t, 4, space.TorusForGrid(w, h, 1), space.TorusGrid(w, h, 1))
	dst.engine.RunRounds(1)
	err := dst.engine.RestoreState(snap.NewReader(sw.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "section holds 65 nodes, the engine 64") {
		t.Fatalf("RestoreState = %v, want the 65-view section refused", err)
	}
	if got := dst.tman.AppendNeighbors(nil, 0, 4); len(got) != 4 {
		t.Fatalf("node 0 has %d neighbours after the refusal", len(got))
	}
}

// TestRestoreLyingCountStaysCheap: a section that claims more views than
// its bytes can hold fails at the count itself, before any view or row
// is sized from it, and leaves the protocol unchanged, in either version.
func TestRestoreLyingCountStaysCheap(t *testing.T) {
	const w, h = 8, 8
	n := newTestNet(t, 4, space.TorusForGrid(w, h, 1), space.TorusGrid(w, h, 1))
	n.engine.RunRounds(3)
	saved := snapshotOf(n.tman)

	for _, v2 := range []bool{false, true} {
		sw := sectionWriter{v2: v2}
		sw.count(math.MaxInt32) // 2³¹−1 views claimed, none present
		sw.count(0)
		before := n.tman.views
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := n.tman.RestoreState(readerOf(sw.Bytes(), v2))
		runtime.ReadMemStats(&m1)
		if err == nil || !strings.Contains(err.Error(), "implausible count") {
			t.Fatalf("v2=%v: RestoreState = %v, want the count refused", v2, err)
		}
		if b := m1.TotalAlloc - m0.TotalAlloc; b > 64<<10 {
			t.Errorf("v2=%v: refusing a lying count allocated %d B", v2, b)
		}
		if &n.tman.views[0] != &before[0] || !bytes.Equal(snapshotOf(n.tman), saved) {
			t.Fatalf("v2=%v: a refused restore changed the protocol", v2)
		}
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

// FuzzRestoreState: no byte string makes RestoreState panic, read as any
// body version. A section it accepts leaves every view in a row of restCap
// ids, within restCap, in [0, n) and free of its own node, and
// re-snapshots to the bytes it consumed (re-encoded with 8-byte fields
// when it was read as version 1 or 2); a section it refuses leaves the
// protocol as it was. Every seed comes in versions 2, 3 and 4, which lay a
// tman section out alike but with 4-byte fields from version 3 on.
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
	honest := viewsOf(tm)
	for _, version := range []uint8{2, 3, 4} {
		v2 := version < 3
		b := encodeViews(honest, v2)
		f.Add(b, version)
		f.Add(encodeViews([][]int{{1}, {1}}, v2), version)                                // node 1 holds itself
		f.Add(encodeViews([][]int{slices.Repeat([]int{1}, restCap+1), {0}}, v2), version) // one past a row at rest
		f.Add(b[:len(b)-3], version)
	}
	f.Fuzz(func(t *testing.T, data []byte, version uint8) {
		before := snapshotOf(tm)
		r := snap.NewVersionReader(data, uint32(version))
		if err := tm.RestoreState(r); err != nil {
			if !bytes.Equal(snapshotOf(tm), before) {
				t.Fatalf("refused restore (%v) changed the protocol", err)
			}
			return
		}
		for id, v := range tm.views {
			if len(v) > restCap || cap(v) != restCap {
				t.Fatalf("restored view of node %d holds %d entries in a row of %d", id, len(v), cap(v))
			}
			for _, x := range v {
				if x < 0 || int(x) >= len(tm.views) || int(x) == id {
					t.Fatalf("restored view of node %d holds node %d (n = %d)", id, x, len(tm.views))
				}
			}
		}
		got := snapshotOf(tm)
		if version < 3 {
			got = encodeViews(viewsOf(tm), true)
		}
		if used := data[:len(data)-r.Remaining()]; !bytes.Equal(got, used) {
			t.Fatalf("accepted section re-snapshots to %d bytes, consumed %d", len(got), len(used))
		}
	})
}
