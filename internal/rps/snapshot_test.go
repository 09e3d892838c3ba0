package rps

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
)

func snapshotOf(p *Protocol) []byte {
	var w snap.Writer
	p.SnapshotState(&w)
	return w.Bytes()
}

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

// encodeViews writes an rps section holding views, each entry an (id,
// age) pair, the way SnapshotState does: in version 3 or, with v2 set, in
// version 2, whose 8-byte fields can hold a value past int32.
func encodeViews(views [][][2]int, v2 bool) []byte {
	w := sectionWriter{v2: v2}
	w.count(len(views))
	for _, v := range views {
		w.count(len(v))
		for _, en := range v {
			w.id(en[0])
			w.id(en[1])
		}
	}
	return w.Bytes()
}

// viewPairs returns p's views as (id, age) pairs.
func viewPairs(p *Protocol) [][][2]int {
	out := make([][][2]int, len(p.lens))
	for id, v := range p.views() {
		for _, en := range v {
			out[id] = append(out[id], [2]int{int(en.id), int(en.age)})
		}
	}
	return out
}

// TestRestoreRefusesCraftedSections: every view entry must name a node in
// [0, n), n being the section's own view count, other than the view's own
// node and not named earlier in the view, with a non-negative age, and no
// view may hold more than viewSize entries. A version 2 section's 8-byte entry outside int32 is refused by
// the reader. Each refusal leaves the protocol as it was, and an honest
// section round-trips byte for byte from either version.
func TestRestoreRefusesCraftedSections(t *testing.T) {
	const n = 64
	e, p := newNetwork(t, 4, n)
	e.RunRounds(5)
	saved := snapshotOf(p)
	views := viewPairs(p)
	if !bytes.Equal(encodeViews(views, false), saved) {
		t.Fatal("encodeViews does not reproduce SnapshotState's bytes")
	}
	if len(views[3]) < 2 {
		t.Fatal("node 3's view holds fewer than 2 entries; the crafted sections would not change it")
	}
	// edited returns views with edit applied to a copy of node 3's view,
	// or of every view when all is set.
	edited := func(all bool, edit func(v [][2]int) [][2]int) [][][2]int {
		out := make([][][2]int, len(views))
		for id, v := range views {
			out[id] = v
			if all || id == 3 {
				out[id] = edit(slices.Clone(v))
			}
		}
		return out
	}
	peers := func(fill int) func(v [][2]int) [][2]int {
		return func(v [][2]int) [][2]int {
			for j := range v {
				v[j][0] = fill
			}
			return v
		}
	}
	aged := func(age int) [][][2]int {
		return edited(false, func(v [][2]int) [][2]int { v[0][1] = age; return v })
	}
	// grown is node 3's view replaced by ln distinct entries, none of them
	// node 3.
	grown := func(ln int) [][][2]int {
		return edited(false, func([][2]int) [][2]int {
			v := make([][2]int, ln)
			for j := range v {
				v[j] = [2]int{4 + j, 0}
			}
			return v
		})
	}
	cases := []struct {
		name   string
		views  [][][2]int
		v2Only bool // the value does not fit version 3's 4-byte field
		want   string
	}{
		{"every entry 1<<20", edited(true, peers(1<<20)), false, "outside [0,64)"},
		{"entry n", edited(false, peers(n)), false, "outside [0,64)"},
		{"entry -1", edited(false, peers(-1)), false, "outside [0,64)"},
		{"entry 1<<32+5", edited(false, peers(1<<32+5)), true, "value 4294967301 at offset"},
		{"view one past viewSize", grown(viewSize + 1), false, "more than the 20 a view keeps"},
		{"entry names its own node", edited(false, peers(3)), false, "node 3 holds the node itself"},
		{"entry repeated", edited(false, func(v [][2]int) [][2]int { v[1][0] = v[0][0]; return v }), false, "twice"},
		{"age -1", aged(-1), false, "holds age -1"},
		{"age past int32", aged(math.MaxInt32 + 1), true, "2147483648 at offset"},
	}
	refuse := func(t *testing.T, section []byte, v2 bool, want string) {
		t.Helper()
		before := p.pages
		err := p.RestoreState(readerOf(section, v2))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v2=%v: RestoreState = %v, want an error containing %q", v2, err, want)
		}
		if &p.pages[0] != &before[0] || !bytes.Equal(snapshotOf(p), saved) {
			t.Fatalf("v2=%v: a refused restore changed the protocol", v2)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, v2 := range []bool{false, true} {
				if v2 || !c.v2Only {
					refuse(t, encodeViews(c.views, v2), v2, c.want)
				}
			}
		})
	}
	t.Run("view count past the bytes", func(t *testing.T) {
		for _, v2 := range []bool{false, true} {
			w := sectionWriter{v2: v2}
			w.count(math.MaxInt32)
			refuse(t, w.Bytes(), v2, "implausible count")
		}
	})
	t.Run("node count other than the engine's", func(t *testing.T) {
		r := snap.NewReader(saved)
		r.SetNodes(n + 1)
		before := p.pages
		err := p.RestoreState(r)
		if err == nil || !strings.Contains(err.Error(), "section holds 64 nodes, the engine 65") {
			t.Fatalf("RestoreState = %v, want the node count refused", err)
		}
		if &p.pages[0] != &before[0] || !bytes.Equal(snapshotOf(p), saved) {
			t.Fatal("a refused restore changed the protocol")
		}
	})
	for _, v2 := range []bool{false, true} {
		if err := p.RestoreState(readerOf(encodeViews(views, v2), v2)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotOf(p), saved) {
			t.Fatalf("v2=%v: an honest section does not round-trip", v2)
		}
	}
}

// FuzzRestoreState: no byte string makes RestoreState panic, read as any
// body version. A section it accepts leaves every view within viewSize, in
// [0, n), free of its own node and of repeats and with no negative age,
// and re-snapshots to the bytes it consumed (re-encoded with 8-byte fields
// when it was read as version 1 or 2); a section it refuses leaves the
// protocol as it was.
// Every seed comes in versions 2, 3 and 4, which lay an rps section out
// alike but with 4-byte fields from version 3 on.
func FuzzRestoreState(f *testing.F) {
	p := New(Config{})
	e := sim.New(4, p)
	e.AddNodes(64)
	e.RunRounds(5)
	honest := viewPairs(p)
	seeds := [][][][2]int{
		honest,
		// Node 1's view holding node 1, and node 0's holding 25 entries:
		// both in range, both more than an honest view can hold.
		{{{1, 0}}, {{1, 0}}},
		append([][][2]int{func() (v [][2]int) {
			for j := range 25 {
				v = append(v, [2]int{1 + j, j})
			}
			return v
		}()}, make([][][2]int, 29)...),
		// Node 0's view holding node 1 at age -1.
		{{{1, -1}}, {}},
		// Node 0's view holding node 1 twice.
		{{{1, 0}, {1, 0}}, {{0, 0}}, {{0, 0}}, {{0, 0}}},
	}
	for _, version := range []uint8{2, 3, 4} {
		for _, views := range seeds {
			f.Add(encodeViews(views, version < 3), version)
		}
		b := encodeViews(honest, version < 3)
		f.Add(b[:len(b)-3], version)
	}
	// Node 0's view holding node 1 at age 2³¹, which only version 2 can
	// write: ages are int32 in a row.
	f.Add(encodeViews([][][2]int{{{1, math.MaxInt32 + 1}}, {}}, true), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, version uint8) {
		before := snapshotOf(p)
		r := snap.NewVersionReader(data, uint32(version))
		if err := p.RestoreState(r); err != nil {
			if !bytes.Equal(snapshotOf(p), before) {
				t.Fatalf("refused restore (%v) changed the protocol", err)
			}
			return
		}
		for id, v := range p.views() {
			if len(v) > viewSize {
				t.Fatalf("restored view of node %d holds %d entries, cap %d", id, len(v), viewSize)
			}
			for j, en := range v {
				if en.id < 0 || int(en.id) >= len(p.lens) || int(en.id) == id {
					t.Fatalf("restored view of node %d holds node %d (n = %d)", id, en.id, len(p.lens))
				}
				if viewContains(v[:j], sim.NodeID(en.id)) {
					t.Fatalf("restored view of node %d holds node %d twice", id, en.id)
				}
				if en.age < 0 {
					t.Fatalf("restored view of node %d holds age %d", id, en.age)
				}
			}
		}
		got := snapshotOf(p)
		if version < 3 {
			got = encodeViews(viewPairs(p), true)
		}
		if used := data[:len(data)-r.Remaining()]; !bytes.Equal(got, used) {
			t.Fatalf("accepted section re-snapshots to %d bytes, consumed %d", len(got), len(used))
		}
	})
}

// TestRestoreRefusesRepeatedEntry: a view that names one node twice is
// refused, in either version, and leaves the protocol as it was. Merge
// replaces the slots it sent by position, so such a view would run a
// trajectory no honest run produces.
func TestRestoreRefusesRepeatedEntry(t *testing.T) {
	e, p := newNetwork(t, 4, 4)
	e.RunRounds(2)
	saved := snapshotOf(p)
	views := [][][2]int{{{1, 0}, {1, 0}}, {{0, 0}}, {{0, 0}}, {{0, 0}}}
	for _, v2 := range []bool{false, true} {
		err := p.RestoreState(readerOf(encodeViews(views, v2), v2))
		if err == nil || !strings.Contains(err.Error(), "view of node 0 holds node 1 twice") {
			t.Fatalf("v2=%v: RestoreState = %v, want the repeated entry refused", v2, err)
		}
		if !bytes.Equal(snapshotOf(p), saved) {
			t.Fatalf("v2=%v: a refused restore changed the protocol", v2)
		}
	}
}

// TestRestoreLyingCountStaysCheap: a section that claims more views than
// its bytes can hold fails at the count itself, before any length or page
// is sized from it, and leaves the protocol unchanged, in either version.
func TestRestoreLyingCountStaysCheap(t *testing.T) {
	e, p := newNetwork(t, 4, 64)
	e.RunRounds(3)
	saved := snapshotOf(p)

	for _, v2 := range []bool{false, true} {
		sw := sectionWriter{v2: v2}
		sw.count(math.MaxInt32) // 2³¹−1 views claimed, none present
		sw.count(0)
		before := p.pages
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := p.RestoreState(readerOf(sw.Bytes(), v2))
		runtime.ReadMemStats(&m1)
		if err == nil || !strings.Contains(err.Error(), "implausible count") {
			t.Fatalf("v2=%v: RestoreState = %v, want the count refused", v2, err)
		}
		if b := m1.TotalAlloc - m0.TotalAlloc; b > 64<<10 {
			t.Errorf("v2=%v: refusing a lying count allocated %d B", v2, b)
		}
		if &p.pages[0] != &before[0] || !bytes.Equal(snapshotOf(p), saved) {
			t.Fatalf("v2=%v: a refused restore changed the protocol", v2)
		}
	}
}
