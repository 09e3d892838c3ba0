package rps

import (
	"bytes"
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

// TestRestoreRefusesCraftedSections: every view entry must name a node in
// [0, n), n being the section's own view count, other than the view's own
// node, and no view may hold more than viewSize entries. Each refusal
// leaves the protocol as it was, and an honest section round-trips byte
// for byte.
func TestRestoreRefusesCraftedSections(t *testing.T) {
	const n = 64
	e, p := newNetwork(t, 4, n)
	e.RunRounds(5)
	saved := snapshotOf(p)
	// crafted re-encodes the views with every entry of node 3's view, or
	// of every view when all is set, replaced by fill.
	crafted := func(fill int, all bool) []byte {
		var w snap.Writer
		w.Len(len(p.views))
		for id, v := range p.views {
			w.Len(len(v))
			for _, en := range v {
				peer := int(en.id)
				if all || id == 3 {
					peer = fill
				}
				w.Int(peer)
				w.Int(en.age)
			}
		}
		return w.Bytes()
	}
	// grown re-encodes the views with node 3's view replaced by ln
	// distinct entries, none of them node 3.
	grown := func(ln int) []byte {
		var w snap.Writer
		w.Len(len(p.views))
		for id, v := range p.views {
			if id == 3 {
				w.Len(ln)
				for j := range ln {
					w.Int(4 + j)
					w.Int(0)
				}
				continue
			}
			w.Len(len(v))
			for _, en := range v {
				w.Int(int(en.id))
				w.Int(en.age)
			}
		}
		return w.Bytes()
	}
	if len(p.views[3]) == 0 {
		t.Fatal("node 3 has an empty view; the crafted sections would not change it")
	}
	var lying snap.Writer
	lying.Len(1 << 40)
	cases := []struct {
		name    string
		section []byte
		want    string
	}{
		{"every entry 1<<20", crafted(1<<20, true), "outside [0,64)"},
		{"entry n", crafted(n, false), "outside [0,64)"},
		{"entry -1", crafted(-1, false), "outside [0,64)"},
		{"entry 1<<32+5", crafted(1<<32+5, false), "outside [0,64)"},
		{"view count past the bytes", lying.Bytes(), "implausible count"},
		{"view one past viewSize", grown(viewSize + 1), "more than the 20 a view keeps"},
		{"entry names its own node", crafted(3, false), "node 3 holds the node itself"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := p.views
			err := p.RestoreState(snap.NewReader(c.section))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("RestoreState = %v, want an error containing %q", err, c.want)
			}
			if &p.views[0] != &before[0] || !bytes.Equal(snapshotOf(p), saved) {
				t.Fatal("a refused restore changed the protocol")
			}
		})
	}
	if err := p.RestoreState(snap.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotOf(p), saved) {
		t.Fatal("an honest section does not round-trip")
	}
}

// FuzzRestoreState: no byte string makes RestoreState panic. A section it
// accepts leaves every view within viewSize, in [0, n) and free of its
// own node, and re-snapshots to the bytes it consumed; a section it
// refuses leaves the protocol as it was.
func FuzzRestoreState(f *testing.F) {
	p := New(Config{})
	e := sim.New(4, p)
	e.AddNodes(64)
	e.RunRounds(5)
	honest := snapshotOf(p)
	f.Add(honest)
	// Node 1's view holding node 1, and node 0's holding 25 entries: both
	// in range, both more than an honest view can hold.
	var self, long snap.Writer
	self.Len(2)
	self.Len(1)
	self.Int(1)
	self.Int(0)
	self.Len(1)
	self.Int(1)
	self.Int(0)
	f.Add(self.Bytes())
	long.Len(30)
	long.Len(25)
	for j := range 25 {
		long.Int(1 + j)
		long.Int(j)
	}
	for range 29 {
		long.Len(0)
	}
	f.Add(long.Bytes())
	f.Add(honest[:len(honest)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		before := snapshotOf(p)
		r := snap.NewReader(data)
		if err := p.RestoreState(r); err != nil {
			if !bytes.Equal(snapshotOf(p), before) {
				t.Fatalf("refused restore (%v) changed the protocol", err)
			}
			return
		}
		for id, v := range p.views {
			if len(v) > viewSize {
				t.Fatalf("restored view of node %d holds %d entries, cap %d", id, len(v), viewSize)
			}
			for _, en := range v {
				if en.id < 0 || int(en.id) >= len(p.views) || int(en.id) == id {
					t.Fatalf("restored view of node %d holds node %d (n = %d)", id, en.id, len(p.views))
				}
			}
		}
		if got, used := snapshotOf(p), data[:len(data)-r.Remaining()]; !bytes.Equal(got, used) {
			t.Fatalf("accepted section re-snapshots to %d bytes, consumed %d", len(got), len(used))
		}
	})
}
