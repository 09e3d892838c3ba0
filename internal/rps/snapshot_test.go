package rps

import (
	"bytes"
	"strings"
	"testing"

	"polystyrene/internal/snap"
)

func snapshotOf(p *Protocol) []byte {
	var w snap.Writer
	p.SnapshotState(&w)
	return w.Bytes()
}

// TestRestoreRefusesCraftedSections: every view entry must name a node in
// [0, n), n being the section's own view count. Each refusal leaves the
// protocol as it was, and an honest section round-trips byte for byte.
func TestRestoreRefusesCraftedSections(t *testing.T) {
	const n = 64
	e, p := newNetwork(t, 4, n, Config{})
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
