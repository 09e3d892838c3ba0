package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"polystyrene/internal/fd"
	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
)

func snapshotOf(p *Protocol) []byte {
	var w snap.Writer
	p.SnapshotState(&w)
	return w.Bytes()
}

// section is a decoded core section, field for field as SnapshotState
// writes it, so a test can edit one field and encode the rest unchanged.
// lists, steps and hwMark are the holders index versions 1 to 3 carry
// after the nodes; version 4 has none.
type section struct {
	pts           []space.Point
	rng           []uint64 // nil when the splitter has no stream
	nodes         []*nodeSection
	lists         [][]int
	steps, hwMark int
	det           *string // the detector section's body, nil when absent
}

type nodeSection struct {
	guests  []uint32
	pos     []float64
	dirty   bool
	ghosts  []runSection
	backups []runSection // origin is the target, ids its pushed list
}

type runSection struct {
	origin int
	ids    []uint32
}

// readerOf returns a reader over the section b of the given version.
func readerOf(b []byte, version uint8) *snap.Reader {
	return snap.NewVersionReader(b, uint32(version))
}

// decodeSection parses a section of the given version.
func decodeSection(t testing.TB, b []byte, version uint8) section {
	t.Helper()
	r := readerOf(b, version)
	var s section
	readIDs := func() []uint32 {
		ids := make([]uint32, r.Count(4))
		for i := range ids {
			ids[i] = r.U32()
		}
		return ids
	}
	readF64s := func() []float64 {
		v := make([]float64, r.Count(8))
		for i := range v {
			v[i] = r.F64()
		}
		return v
	}
	readRuns := func() []runSection {
		runs := make([]runSection, r.Count(8))
		for i := range runs {
			runs[i].origin = r.I32()
			runs[i].ids = readIDs()
		}
		return runs
	}
	s.pts = make([]space.Point, r.Count(4))
	for i := range s.pts {
		s.pts[i] = readF64s()
	}
	if r.Bool() {
		s.rng = make([]uint64, 4)
		for i := range s.rng {
			s.rng[i] = r.U64()
		}
	}
	s.nodes = make([]*nodeSection, r.Count(1))
	for i := range s.nodes {
		if !r.Bool() {
			continue
		}
		s.nodes[i] = &nodeSection{guests: readIDs(), pos: readF64s(), dirty: r.Bool(), ghosts: readRuns(), backups: readRuns()}
	}
	if version < 4 {
		s.lists = make([][]int, r.Count(4))
		for i := range s.lists {
			s.lists[i] = make([]int, r.Count(4))
			for j := range s.lists[i] {
				s.lists[i][j] = r.I32()
			}
		}
		s.steps, s.hwMark = r.Int(), r.Int()
	}
	if r.Bool() {
		body := r.String() // a section is laid out as a length-prefixed string
		s.det = &body
	}
	if err := r.Err(); err != nil || r.Remaining() != 0 {
		t.Fatalf("decodeSection: %v, %d bytes left", err, r.Remaining())
	}
	return s
}

// encode writes s in the given version: version 2's 8-byte fields can
// hold a value past int32, and version 4 drops the holders index. A
// detector section is copied as it was decoded.
func (s section) encode(version uint8) []byte {
	var w snap.Writer
	id, count := w.I32, w.Count
	if version < 3 {
		id, count = w.Int, w.Len
	}
	writeIDs := func(ids []uint32) {
		count(len(ids))
		for _, id := range ids {
			w.U32(id)
		}
	}
	writeF64s := func(v []float64) {
		count(len(v))
		for _, x := range v {
			w.F64(x)
		}
	}
	writeRuns := func(runs []runSection) {
		count(len(runs))
		for _, r := range runs {
			id(r.origin)
			writeIDs(r.ids)
		}
	}
	count(len(s.pts))
	for _, pt := range s.pts {
		writeF64s(pt)
	}
	w.Bool(s.rng != nil)
	for _, v := range s.rng {
		w.U64(v)
	}
	count(len(s.nodes))
	for _, n := range s.nodes {
		w.Bool(n != nil)
		if n == nil {
			continue
		}
		writeIDs(n.guests)
		writeF64s(n.pos)
		w.Bool(n.dirty)
		writeRuns(n.ghosts)
		writeRuns(n.backups)
	}
	if version < 4 {
		count(len(s.lists))
		for _, l := range s.lists {
			count(len(l))
			for _, v := range l {
				id(v)
			}
		}
		w.Int(s.steps)
		w.Int(s.hwMark)
	}
	w.Bool(s.det != nil)
	if s.det != nil {
		w.String(*s.det)
	}
	return w.Bytes()
}

// clone deep-copies the parts of s that crafted sections edit.
func (s section) clone() section {
	c := s
	c.pts = slices.Clone(s.pts)
	c.nodes = make([]*nodeSection, len(s.nodes))
	for i, n := range s.nodes {
		if n == nil {
			continue
		}
		cn := *n
		cn.ghosts = slices.Clone(n.ghosts)
		cn.backups = slices.Clone(n.backups)
		for j := range cn.backups {
			cn.backups[j].ids = slices.Clone(n.backups[j].ids)
		}
		c.nodes[i] = &cn
	}
	c.lists = slices.Clone(s.lists)
	for i := range c.lists {
		c.lists[i] = slices.Clone(s.lists[i])
	}
	return c
}

// withHolders returns s with the holders index a version 1 to 3 section
// would carry for its nodes: every point's list names the nodes hosting
// it, and the trim counters are arbitrary.
func withHolders(s section) section {
	s.lists = make([][]int, len(s.pts))
	for id, ns := range s.nodes {
		if ns != nil {
			for _, pid := range ns.guests {
				s.lists[pid] = append(s.lists[pid], id)
			}
		}
	}
	s.steps, s.hwMark = 4000, 5
	return s
}

// afterCatastrophe returns a 64-node stack (K = 4) whose right half
// crashed and whose survivors adopted its ghosts, with 8 nodes then
// reinjected: their empty guest sets reach their targets as zero-length
// runs.
func afterCatastrophe(t testing.TB, cfg Config) *stack {
	t.Helper()
	cfg.K = 4
	st := newStack(t, stackOpts{seed: 43, w: 8, h: 8, cfg: cfg})
	st.engine.RunRounds(8)
	for i, pt := range st.points {
		if space.RightHalf(pt, 8) {
			st.engine.Kill(sim.NodeID(i))
		}
	}
	st.engine.RunRounds(3)
	st.engine.AddNodes(8)
	st.engine.RunRounds(1)
	return st
}

// craft is one section RestoreState must refuse, and a fragment of the
// error it must give. A holders craft edits the holders index, so it
// exists in versions 2 and 3 only; every other craft in all three.
type craft struct {
	name    string
	sec     section
	want    string
	holders bool
}

// versions lists the section versions c exists in.
func (c craft) versions() []uint8 {
	if c.holders {
		return []uint8{2, 3}
	}
	return []uint8{2, 3, 4}
}

// craftedSections derives from an honest section one crafted section per
// refusal RestoreState makes while parsing. honest must carry a holders
// index (see withHolders).
func craftedSections(t testing.TB, honest section) []craft {
	t.Helper()
	n := len(honest.nodes)
	// i is a live node holding at least two ghost runs and two targets
	// with a non-empty pushed list.
	i := slices.IndexFunc(honest.nodes, func(ns *nodeSection) bool {
		return ns != nil && len(ns.ghosts) >= 2 && len(ns.backups) >= 2 && len(ns.backups[0].ids) > 0
	})
	if i < 0 {
		t.Fatal("no node holds two ghost runs and two targets")
	}
	var out []craft
	add := func(name, want string, edit func(s *section, ns *nodeSection)) {
		s := honest.clone()
		edit(&s, s.nodes[i])
		out = append(out, craft{name: name, sec: s, want: want, holders: strings.HasPrefix(name, "holders")})
	}
	last := func(ns *nodeSection) *runSection { return &ns.ghosts[len(ns.ghosts)-1] }
	add("ghost origin n", "names ghost origin", func(_ *section, ns *nodeSection) { last(ns).origin = n })
	add("ghost origin -1", "names ghost origin", func(_ *section, ns *nodeSection) { ns.ghosts[0].origin = -1 })
	add("ghost origin names its own node", "names ghost origin", func(_ *section, ns *nodeSection) {
		at, _ := slices.BinarySearchFunc(ns.ghosts, i, func(r runSection, o int) int { return r.origin - o })
		ns.ghosts = slices.Insert(ns.ghosts, at, runSection{origin: i})
	})
	add("ghost origins descend", "do not strictly ascend", func(_ *section, ns *nodeSection) {
		ns.ghosts[0], ns.ghosts[1] = ns.ghosts[1], ns.ghosts[0]
	})
	add("ghost origin repeated", "do not strictly ascend", func(_ *section, ns *nodeSection) {
		ns.ghosts = slices.Insert(ns.ghosts, 1, ns.ghosts[0])
	})
	add("backup target n", "names backup target", func(_ *section, ns *nodeSection) { ns.backups[0].origin = n })
	add("backup target -1", "names backup target", func(_ *section, ns *nodeSection) { ns.backups[1].origin = -1 })
	add("backup target names its own node", "names backup target", func(_ *section, ns *nodeSection) { ns.backups[0].origin = i })
	add("backup target repeated", "twice", func(_ *section, ns *nodeSection) { ns.backups[1].origin = ns.backups[0].origin })
	add("pushed lists differ", "a set other than", func(_ *section, ns *nodeSection) {
		ns.backups[1].ids = ns.backups[1].ids[1:]
	})
	add("pushed PointID out of range", "pushed PointID", func(s *section, ns *nodeSection) {
		for j := range ns.backups {
			ns.backups[j].ids[0] = uint32(len(s.pts))
		}
	})
	add("holders entry n", "holders list", func(s *section, _ *nodeSection) { s.lists[0] = append(s.lists[0], n) })
	add("holders entry -1", "holders list", func(s *section, _ *nodeSection) { s.lists[1] = append(s.lists[1], -1) })
	add("duplicate point", "duplicate point", func(s *section, _ *nodeSection) { s.pts[1] = s.pts[0] })
	return out
}

// TestRestoreRefusesCraftedSections: every ghost origin and backup target
// must name another node of the section, origins must strictly ascend,
// targets must be distinct and share one pushed list, and a version 2 or
// 3 section's holders entries must name nodes of the section. The
// interner table must hold no duplicate point, and the detector must
// accept and consume its section exactly. Each refusal leaves the
// protocol, its interner and its detector as they were. An honest section
// round-trips byte for byte as version 4, and as version 2 or 3 restores
// to the same state, its holders index dropped.
func TestRestoreRefusesCraftedSections(t *testing.T) {
	st := afterCatastrophe(t, Config{})
	p := st.poly
	saved := snapshotOf(p)
	honest := decodeSection(t, saved, 4)
	if !bytes.Equal(honest.encode(4), saved) {
		t.Fatal("the test's section codec does not round-trip an honest section")
	}
	honest = withHolders(honest)
	refuse := func(t *testing.T, p *Protocol, c craft, version uint8) {
		t.Helper()
		before, nodes := snapshotOf(p), p.nodes
		err := p.RestoreState(readerOf(c.sec.encode(version), version))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("v%d: RestoreState = %v, want an error containing %q", version, err, c.want)
		}
		if &p.nodes[0] != &nodes[0] || !bytes.Equal(snapshotOf(p), before) {
			t.Fatalf("v%d: a refused restore changed the protocol", version)
		}
	}
	for _, c := range craftedSections(t, honest) {
		t.Run(c.name, func(t *testing.T) {
			for _, version := range c.versions() {
				refuse(t, p, c, version)
			}
		})
	}
	t.Run("node count other than the engine's", func(t *testing.T) {
		r := snap.NewReader(saved)
		r.SetNodes(len(honest.nodes) + 1)
		err := p.RestoreState(r)
		if err == nil || !strings.Contains(err.Error(), "section holds 72 nodes, the engine 73") {
			t.Fatalf("RestoreState = %v, want the node count refused", err)
		}
		if !bytes.Equal(snapshotOf(p), saved) {
			t.Fatal("a refused restore changed the protocol")
		}
	})
	for _, version := range []uint8{2, 3, 4} {
		if err := p.RestoreState(readerOf(honest.encode(version), version)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotOf(p), saved) {
			t.Fatalf("v%d: an honest section does not round-trip", version)
		}
	}

	// A stateful detector: a section taken earlier, whose detector body
	// carries one trailing byte, is refused after the detector read it, and
	// must still leave the later detector state in place.
	t.Run("detector section with a trailing byte", func(t *testing.T) {
		ds := afterCatastrophe(t, Config{Detector: fd.NewDelayed(2)})
		early := decodeSection(t, snapshotOf(ds.poly), 4)
		body := *early.det + "\x00"
		early.det = &body
		for _, id := range ds.engine.LiveIDs()[:4] {
			ds.engine.Kill(id)
		}
		ds.engine.RunRounds(1)
		refuse(t, ds.poly, craft{sec: early, want: "trailing bytes"}, 4)
	})
}

// FuzzRestoreState: no byte string makes RestoreState panic, read as any
// body version. A section it accepts re-snapshots to the bytes it
// consumed, once those are re-encoded as version 4 (which drops a version
// 1 to 3 holders index and narrows version 1 and 2's 8-byte fields); a
// section it refuses leaves the protocol as it was. The seeds, in versions
// 2, 3 and 4, are an honest section taken after a catastrophe and
// reinjection (so it holds adopted ghosts and zero-length runs), one
// crafted section per refusal the version can carry, and a truncation.
func FuzzRestoreState(f *testing.F) {
	st := afterCatastrophe(f, Config{})
	p := st.poly
	honest := snapshotOf(p)
	sec := decodeSection(f, honest, 4)
	zeroRun := false
	for _, ns := range sec.nodes {
		for _, r := range ns.ghosts {
			zeroRun = zeroRun || len(r.ids) == 0
		}
	}
	if !zeroRun {
		f.Fatal("the honest seed holds no zero-length ghost run")
	}
	sec = withHolders(sec)
	crafts := craftedSections(f, sec)
	for _, version := range []uint8{4, 3, 2} {
		b := sec.encode(version)
		f.Add(b, version)
		for _, c := range crafts {
			if slices.Contains(c.versions(), version) {
				f.Add(c.sec.encode(version), version)
			}
		}
		f.Add(b[:len(b)-5], version)
	}
	f.Fuzz(func(t *testing.T, data []byte, version uint8) {
		before := snapshotOf(p)
		r := readerOf(data, version)
		if err := p.RestoreState(r); err != nil {
			if !bytes.Equal(snapshotOf(p), before) {
				t.Fatalf("refused restore (%v) changed the protocol", err)
			}
			return
		}
		used := data[:len(data)-r.Remaining()]
		if version < 4 {
			used = decodeSection(t, used, version).encode(4)
		}
		if got := snapshotOf(p); !bytes.Equal(got, used) {
			t.Fatalf("accepted section re-snapshots to %d bytes, consumed %d", len(got), len(used))
		}
	})
}
