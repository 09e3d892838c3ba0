package snap

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var w Writer
	w.U64(0xdeadbeefcafef00d)
	w.U32(42)
	w.I64(-7)
	w.Int(123456)
	w.F64(math.NaN())
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.String("hello, snapshot")
	w.Len(3)
	w.Bool(true)
	w.Bool(true)
	w.Bool(true)

	r := NewReader(w.Bytes())
	if got := r.U64(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.U32(); got != 42 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.I64(); got != -7 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); !math.IsNaN(got) {
		t.Errorf("F64 NaN = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 -Inf = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.String(); got != "hello, snapshot" {
		t.Errorf("String = %q", got)
	}
	if got := r.Len(1); got != 3 {
		t.Errorf("Len = %d", got)
	}
	for i := 0; i < 3; i++ {
		if !r.Bool() {
			t.Errorf("counted item %d lost", i)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestLenBoundsAllocation(t *testing.T) {
	var w Writer
	w.Len(1 << 40)
	r := NewReader(w.Bytes())
	if got := r.Len(8); got != 0 {
		t.Errorf("bogus Len returned %d", got)
	}
	if r.Err() == nil {
		t.Fatal("implausible count accepted")
	}
}

func TestBoolRejectsGarbage(t *testing.T) {
	r := NewReader([]byte{7})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("Bool accepted byte 7")
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U64() // truncated: latches the error
	if r.Err() == nil {
		t.Fatal("truncated U64 accepted")
	}
	first := r.Err()
	r.U64()
	_ = r.String()
	if r.Err() != first {
		t.Fatal("sticky error was replaced")
	}
}

func TestSectionBounds(t *testing.T) {
	var inner Writer
	inner.U64(11)
	var w Writer
	w.Section(inner.Bytes())
	w.U64(99)

	r := NewReader(w.Bytes())
	sub := r.Section()
	if got := sub.U64(); got != 11 {
		t.Errorf("section U64 = %d", got)
	}
	if err := CloseSection("test", sub); err != nil {
		t.Fatalf("CloseSection: %v", err)
	}
	// The sub-reader must not see past its boundary.
	sub2 := NewReader(w.Bytes())
	s := sub2.Section()
	s.U64()
	s.U64()
	if s.Err() == nil {
		t.Fatal("section over-read was not detected")
	}
	if got := r.U64(); got != 99 {
		t.Errorf("outer U64 after section = %d", got)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	body := []byte("engine state goes here")
	enc := Encode("engine", body)
	got, err := Decode("engine", enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body mismatch: %q", got)
	}
}

func TestEnvelopeIORoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "scenario", []byte{1, 2, 3}); err != nil {
		t.Fatalf("WriteEnvelope: %v", err)
	}
	got, err := ReadEnvelope(&buf, "scenario")
	if err != nil {
		t.Fatalf("ReadEnvelope: %v", err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("body mismatch: %v", got)
	}
}

func TestEnvelopeRejectsCorruption(t *testing.T) {
	enc := Encode("engine", []byte("state"))
	// Flip every byte in turn: each single-byte corruption must be caught.
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := Decode("engine", bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

func TestEnvelopeRejectsTruncation(t *testing.T) {
	enc := Encode("engine", []byte("0123456789abcdef"))
	for n := 0; n < len(enc); n++ {
		if _, err := Decode("engine", enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestEnvelopeRejectsWrongKind(t *testing.T) {
	enc := Encode("engine", []byte("state"))
	_, err := Decode("scenario", enc)
	if err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("wrong kind accepted or unclear error: %v", err)
	}
}

func TestEnvelopeRejectsWrongVersion(t *testing.T) {
	// Hand-build an envelope with version+1 and a valid checksum: the
	// version gate, not the checksum, must reject it.
	var w Writer
	w.buf = append(w.buf, magic[:]...)
	w.String("engine")
	w.U32(Version + 1)
	w.Section([]byte("future state"))
	enc := appendChecksum(w.Bytes())
	_, err := Decode("engine", enc)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted or unclear error: %v", err)
	}
}

// TestEnvelopeTruncationDiagnostics pins the error message of every
// truncation class at the envelope layer: an operator reading a recovery
// log must be able to tell an empty or torn file (a crash mid-write) from
// genuine bit-level corruption.
func TestEnvelopeTruncationDiagnostics(t *testing.T) {
	enc := Encode("engine", []byte("0123456789abcdef"))
	headerLen := len(magic) + 8 + len("engine") + 4 // magic + kind + version
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "empty snapshot"},
		{"empty-slice", []byte{}, "empty snapshot"},
		{"partial-magic", enc[:3], "shorter than the 8-byte magic"},
		{"magic-only", enc[:len(magic)], "header-only snapshot"},
		{"header-under-checksum", enc[:len(magic)+7], "header-only snapshot"},
		{"mid-kind", enc[:len(magic)+10], "malformed envelope header"},
		{"header-only", enc[:headerLen], "malformed envelope header"},
		{"body-length-cut", enc[:headerLen+4], "malformed envelope header"},
		{"mid-body", enc[:len(enc)-12], "declares a 16-byte body"},
		{"checksum-cut", enc[:len(enc)-3], "declares a 16-byte body"},
		{"not-a-snapshot", []byte("#!/bin/sh\necho hello\n"), "bad magic"},
		{"bit-flip-body", flipByte(enc, headerLen+10), "checksum mismatch"},
		{"bit-flip-checksum", flipByte(enc, len(enc)-1), "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode("engine", tc.data)
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// ReadEnvelope must surface the identical diagnosis.
			_, rerr := ReadEnvelope(bytes.NewReader(tc.data), "engine")
			if rerr == nil || !strings.Contains(rerr.Error(), tc.want) {
				t.Fatalf("ReadEnvelope error %q does not mention %q", rerr, tc.want)
			}
		})
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

func appendChecksum(b []byte) []byte {
	// Mirrors Encode's trailer for hand-built test envelopes.
	h := fnv.New64a()
	h.Write(b)
	var w Writer
	w.buf = append(w.buf, b...)
	w.U64(h.Sum64())
	return w.buf
}

// secTree is a test body: a sequence of primitives and nested sections.
type secTree struct {
	items []secItem
}

type secItem struct {
	kind  byte // 'b' Bool, 'u' U32, 's' String, 'S' section
	u     uint32
	s     string
	child *secTree
}

// writeInPlace writes t into w with BeginSection/EndSection.
func (t *secTree) writeInPlace(w *Writer) {
	for _, it := range t.items {
		switch it.kind {
		case 'b':
			w.Bool(it.u&1 == 1)
		case 'u':
			w.U32(it.u)
		case 's':
			w.String(it.s)
		case 'S':
			mark := w.BeginSection()
			it.child.writeInPlace(w)
			w.EndSection(mark)
		}
	}
}

// nested writes t the old way: every section into its own Writer, then
// Section copies it into the parent.
func (t *secTree) nested() []byte {
	var w Writer
	for _, it := range t.items {
		switch it.kind {
		case 'b':
			w.Bool(it.u&1 == 1)
		case 'u':
			w.U32(it.u)
		case 's':
			w.String(it.s)
		case 'S':
			w.Section(it.child.nested())
		}
	}
	return w.Bytes()
}

// read checks that r holds exactly t.
func (t *secTree) read(r *Reader) error {
	for i, it := range t.items {
		switch it.kind {
		case 'b':
			if got := r.Bool(); got != (it.u&1 == 1) {
				return fmt.Errorf("item %d: Bool %v", i, got)
			}
		case 'u':
			if got := r.U32(); got != it.u {
				return fmt.Errorf("item %d: U32 %d, want %d", i, got, it.u)
			}
		case 's':
			if got := r.String(); got != it.s {
				return fmt.Errorf("item %d: String %q, want %q", i, got, it.s)
			}
		case 'S':
			sub := r.Section()
			if err := it.child.read(sub); err != nil {
				return fmt.Errorf("item %d: %w", i, err)
			}
			if err := CloseSection("child", sub); err != nil {
				return err
			}
		}
	}
	return r.Err()
}

// checkSections asserts that t written in place equals t written through
// nested writers, and that it reads back.
func checkSections(t *testing.T, tree *secTree) {
	t.Helper()
	var w Writer
	tree.writeInPlace(&w)
	want := tree.nested()
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("in-place sections differ from nested writers:\n got %x\nwant %x", w.Bytes(), want)
	}
	r := NewReader(w.Bytes())
	if err := tree.read(r); err != nil {
		t.Fatalf("reading back: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left after reading back", r.Remaining())
	}
}

func randTree(rng *rand.Rand, depth int) *secTree {
	t := &secTree{}
	n := rng.IntN(6)
	if rng.IntN(8) == 0 {
		n = 40 + rng.IntN(40) // many siblings
	}
	for range n {
		switch k := rng.IntN(4); {
		case k == 3 && depth < 3:
			t.items = append(t.items, secItem{kind: 'S', child: randTree(rng, depth+1)})
		case k == 2:
			b := make([]byte, rng.IntN(300))
			for i := range b {
				b[i] = byte(rng.IntN(256))
			}
			t.items = append(t.items, secItem{kind: 's', s: string(b)})
		case k == 1:
			t.items = append(t.items, secItem{kind: 'u', u: rng.Uint32()})
		default:
			t.items = append(t.items, secItem{kind: 'b', u: rng.Uint32()})
		}
	}
	return t
}

func TestInPlaceSectionsMatchSection(t *testing.T) {
	section := func(items ...secItem) secItem { return secItem{kind: 'S', child: &secTree{items: items}} }
	oneByte := secItem{kind: 'b', u: 1}
	fixed := map[string]*secTree{
		"empty":          {},
		"empty-section":  {items: []secItem{section()}},
		"one-byte":       {items: []secItem{section(oneByte)}},
		"three-deep":     {items: []secItem{section(section(section(oneByte), oneByte))}},
		"after-sections": {items: []secItem{section(), section(oneByte), {kind: 'u', u: 9}}},
	}
	many := &secTree{}
	for i := range 200 {
		many.items = append(many.items, section(secItem{kind: 'u', u: uint32(i)}))
	}
	fixed["many-siblings"] = many
	for name, tree := range fixed {
		t.Run(name, func(t *testing.T) { checkSections(t, tree) })
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 300 {
		checkSections(t, randTree(rng, 0))
	}
}

// FuzzWriterSections builds a section tree from the input — 0 opens a
// section, 1 closes one, anything else writes a primitive — and checks it
// the way TestInPlaceSectionsMatchSection does.
func FuzzWriterSections(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{0, 0, 0, 7, 1, 1, 1, 9})
	f.Add([]byte{0, 5, 1, 0, 6, 1, 0, 1, 200, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		root := &secTree{}
		stack := []*secTree{root}
		for i, c := range data {
			top := stack[len(stack)-1]
			switch {
			case c == 0 && len(stack) < 16:
				child := &secTree{}
				top.items = append(top.items, secItem{kind: 'S', child: child})
				stack = append(stack, child)
			case c == 1 && len(stack) > 1:
				stack = stack[:len(stack)-1]
			case c%3 == 0:
				top.items = append(top.items, secItem{kind: 'b', u: uint32(c)})
			case c%3 == 1:
				top.items = append(top.items, secItem{kind: 'u', u: uint32(c) << (i % 24)})
			default:
				top.items = append(top.items, secItem{kind: 's', s: string(data[i:min(len(data), i+int(c%16))])})
			}
		}
		checkSections(t, root)
	})
}

func TestArenaTakeIsolation(t *testing.T) {
	var a Arena[int]
	first := a.Take(3)
	second := a.Take(3)
	if len(first) != 3 || cap(first) != 3 {
		t.Fatalf("Take(3): len %d cap %d, want 3 and 3", len(first), cap(first))
	}
	for i := range second {
		second[i] = 7
	}
	grown := append(first, 99)
	if &grown[0] == &first[0] {
		t.Fatal("append past capacity reused the arena slice")
	}
	for i, v := range second {
		if v != 7 {
			t.Fatalf("append to its neighbour overwrote second[%d] = %d", i, v)
		}
	}

	if z := a.Take(0); len(z) != 0 || cap(z) != 0 {
		t.Fatalf("Take(0): len %d cap %d", len(z), cap(z))
	}

	free := len(a.free)
	big := a.Take(arenaChunk + 5)
	if len(big) != arenaChunk+5 || cap(big) != arenaChunk+5 {
		t.Fatalf("Take(chunk+5): len %d cap %d", len(big), cap(big))
	}
	if len(a.free) != free {
		t.Fatal("a request larger than a chunk discarded the current chunk")
	}

	// Fill every slice handed out across several chunks: none may start
	// non-zero, since chunk memory is never handed out twice.
	for n := 1; n < 3*arenaChunk; n += n/2 + 1 {
		s := a.Take(n % (arenaChunk / 2))
		for i, v := range s {
			if v != 0 {
				t.Fatalf("Take(%d)[%d] = %d, want zeroed memory", len(s), i, v)
			}
			s[i] = -1
		}
	}
}

// lenReader is a bytes.Reader that reports a size of its choosing.
type lenReader struct {
	*bytes.Reader
	n int
}

func (l lenReader) Len() int { return l.n }

func TestReadEnvelopeSizedSources(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	body := make([]byte, 100_000)
	for i := range body {
		body[i] = byte(rng.IntN(256))
	}
	enc := Encode("engine", body)

	partRead := bytes.NewReader(append([]byte("junk"), enc...))
	partRead.Read(make([]byte, 4))

	path := filepath.Join(t.TempDir(), "s.snap")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()

	sources := map[string]io.Reader{
		"part-read bytes.Reader": partRead,
		"bytes.Buffer":           bytes.NewBuffer(enc),
		"os.File":                file,
		"plain io.Reader":        iotest.HalfReader(bytes.NewReader(enc)),
		"size too small":         lenReader{bytes.NewReader(enc), 10},
		"size too large":         lenReader{bytes.NewReader(enc), 3 * len(enc)},
		"size negative":          lenReader{bytes.NewReader(enc), -5},
	}
	for name, src := range sources {
		got, err := ReadEnvelope(src, "engine")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("%s: body differs", name)
		}
	}
}

// TestStreamedEnvelopeLayout pins the streamed envelope to the layout
// the package comment documents, built by hand with Section.
func TestStreamedEnvelopeLayout(t *testing.T) {
	for _, body := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("state"), 1000)} {
		var w Writer
		w.buf = append(w.buf, magic[:]...)
		w.String("scenario")
		w.U32(Version)
		w.Section(body)
		want := appendChecksum(w.Bytes())
		var buf bytes.Buffer
		if err := WriteEnvelope(&buf, "scenario", body); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("WriteEnvelope of a %d-byte body differs from the documented layout", len(body))
		}
		if !bytes.Equal(Encode("scenario", body), want) {
			t.Fatalf("Encode of a %d-byte body differs from the documented layout", len(body))
		}
	}
}

func TestFileSumIsWholeFileFNV(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for range 2000 {
		kind := make([]byte, rng.IntN(12))
		for i := range kind {
			kind[i] = byte('a' + rng.IntN(26))
		}
		body := make([]byte, rng.IntN(512))
		for i := range body {
			body[i] = byte(rng.IntN(256))
		}
		enc := Encode(string(kind), body)
		h := fnv.New64a()
		h.Write(enc)
		if got, want := FileSum(enc), h.Sum64(); got != want {
			t.Fatalf("FileSum %#x, FNV-1a over the file %#x (kind %q, %d-byte body)", got, want, kind, len(body))
		}
	}
}

// Section appends a length-prefixed body written separately: the
// reference encoding the in-place BeginSection/EndSection must match.
func (w *Writer) Section(body []byte) {
	w.Len(len(body))
	w.grow(len(body))
	w.buf = append(w.buf, body...)
}
