package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	if !bytes.Equal(got.data, []byte{1, 2, 3}) || got.Version() != Version {
		t.Fatalf("body mismatch: %v (version %d)", got.data, got.Version())
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
	// Hand-build envelopes with an unknown version and a checksum valid
	// under either algorithm: the version gate, not the checksum, must
	// reject them.
	for _, version := range []uint32{0, Version + 1} {
		for _, sumVersion := range []uint32{1, 2} {
			enc := appendChecksum(sumVersion, envelopeHeader("engine", version, []byte("future state")))
			_, err := Decode("engine", enc)
			if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
				t.Fatalf("version %d (checksummed as %d) accepted or unclear error: %v", version, sumVersion, err)
			}
		}
	}
}

// TestEnvelopeV1StillDecodes pins the read-only version 1 branch: a
// hand-built envelope with a 64-bit FNV-1a trailer decodes to its body.
// FuzzDecodeEnvelope's version 1 seeds check that every single-byte
// change of one is refused.
func TestEnvelopeV1StillDecodes(t *testing.T) {
	body := []byte("state written by a version 1 build")
	got, err := Decode("engine", appendChecksum(1, envelopeHeader("engine", 1, body)))
	if err != nil {
		t.Fatalf("version 1 envelope refused: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("version 1 body = %q, want %q", got, body)
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

// envelopeHeader hand-builds an envelope up to its trailer, following
// the layout the package comment documents.
func envelopeHeader(kind string, version uint32, body []byte) []byte {
	var w Writer
	w.write(string(magic[:]))
	w.String(kind)
	w.U32(version)
	w.Section(body)
	return w.Bytes()
}

// appendChecksum appends the trailer of the given envelope version to a
// hand-built envelope, computed here rather than by the code under test:
// FNV-1a for version 1, CRC-32C zero-extended for versions 2 to 4.
func appendChecksum(version uint32, b []byte) []byte {
	var sum uint64
	switch version {
	case 1:
		h := fnv.New64a()
		h.Write(b)
		sum = h.Sum64()
	case 2, 3, 4:
		sum = uint64(crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
	default:
		panic(fmt.Sprintf("no checksum for version %d", version))
	}
	return binary.LittleEndian.AppendUint64(append([]byte(nil), b...), sum)
}

// secTree is a test body: a sequence of primitives and nested sections.
type secTree struct {
	items []secItem
}

type secItem struct {
	kind  byte // 'b' Bool, 'u' U32, 's' String, 'i' I32s run of n values from u on, 'S' section
	u     uint32
	n     int
	s     string
	child *secTree
}

// run returns the values of an 'i' item: u, u+1, ..., n of them.
func (it secItem) run() []int32 {
	v := make([]int32, it.n)
	for i := range v {
		v[i] = int32(it.u + uint32(i))
	}
	return v
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
		case 'i':
			w.I32s(it.run())
		case 'S':
			mark := w.BeginSection()
			it.child.writeInPlace(w)
			w.EndSection(mark)
		}
	}
}

// nested encodes t by hand, without a Writer, as the package comment
// documents: every section's body is built on its own and then appended
// after its length.
func (t *secTree) nested() []byte {
	var b []byte
	for _, it := range t.items {
		switch it.kind {
		case 'b':
			b = append(b, byte(it.u&1))
		case 'u':
			b = binary.LittleEndian.AppendUint32(b, it.u)
		case 's':
			b = binary.LittleEndian.AppendUint64(b, uint64(len(it.s)))
			b = append(b, it.s...)
		case 'i':
			for _, v := range it.run() {
				b = binary.LittleEndian.AppendUint32(b, uint32(v))
			}
		case 'S':
			child := it.child.nested()
			b = binary.LittleEndian.AppendUint64(b, uint64(len(child)))
			b = append(b, child...)
		}
	}
	return b
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
		case 'i':
			got, want := make([]int32, it.n), it.run()
			if r.I32s(got); !slices.Equal(got, want) {
				return fmt.Errorf("item %d: I32s of %d values differs", i, it.n)
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

// checkSections asserts that t written in place equals t encoded by
// hand, streamed or flattened, and that it reads back. A body past
// firstBlock bytes spans blocks, so a section may close in a later block
// than the one holding its length.
func checkSections(t *testing.T, tree *secTree) {
	t.Helper()
	var w Writer
	tree.writeInPlace(&w)
	var env bytes.Buffer
	if err := w.WriteEnvelope(&env, "scenario"); err != nil {
		t.Fatal(err)
	}
	streamed, err := Decode("scenario", env.Bytes())
	if err != nil {
		t.Fatalf("decoding the streamed envelope: %v", err)
	}
	want := tree.nested()
	if !bytes.Equal(streamed, want) {
		t.Fatalf("streamed in-place sections differ from the hand encoding:\n got %x\nwant %x", streamed, want)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("Bytes differs from the streamed body")
	}
	if !bytes.Equal(env.Bytes(), Encode("scenario", w.Bytes())) {
		t.Fatalf("streamed envelope differs from Encode of Bytes")
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
		switch k := rng.IntN(5); {
		case k == 4:
			it := secItem{kind: 'i', u: rng.Uint32(), n: rng.IntN(300)}
			if rng.IntN(64) == 0 {
				it.n = rng.IntN(300_000) // spans blocks
			}
			t.items = append(t.items, it)
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
	// Runs that span blocks, with the length of each section that holds
	// them left behind in a sealed block, nested sections included.
	run := func(n int) secItem { return secItem{kind: 'i', u: uint32(n), n: n} }
	fixed["run-in-section"] = &secTree{items: []secItem{section(run(300_000))}}
	fixed["nested-runs"] = &secTree{items: []secItem{
		section(section(run(100_000), oneByte), run(200_000), section(run(1)), secItem{kind: 's', s: strings.Repeat("x", 3*firstBlock)}),
		run(70_000),
	}}
	// A section opened with 0 to 8 bytes left in the first block: its
	// length is never split across two blocks.
	for pad := range 9 {
		tree := &secTree{items: []secItem{run(firstBlock/4 - 2)}}
		for range pad {
			tree.items = append(tree.items, oneByte)
		}
		tree.items = append(tree.items, section(oneByte, run(firstBlock)), run(3))
		fixed[fmt.Sprintf("block-edge-%d", pad)] = tree
	}
	for name, tree := range fixed {
		t.Run(name, func(t *testing.T) { checkSections(t, tree) })
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 300 {
		checkSections(t, randTree(rng, 0))
	}
}

// FuzzWriterSections builds a section tree from the input — 0 opens a
// section, 1 closes one, 2 writes an I32s run of up to 306,000 values
// sized by the next byte, anything else writes a primitive — and checks
// it the way TestInPlaceSectionsMatchSection does.
func FuzzWriterSections(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{0, 0, 0, 7, 1, 1, 1, 9})
	f.Add([]byte{0, 5, 1, 0, 6, 1, 0, 1, 200, 3})
	f.Add([]byte{0, 2, 255, 0, 2, 3, 1, 2, 40, 1, 5})
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
			case c == 2:
				n := 1 + 1200*int(data[(i+1)%len(data)])
				top.items = append(top.items, secItem{kind: 'i', u: uint32(i), n: n})
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
		if !bytes.Equal(got.data, body) {
			t.Fatalf("%s: body differs", name)
		}
	}
}

// TestStreamedEnvelopeLayout pins the envelope Writer.WriteEnvelope
// streams to the layout the package comment documents, built by hand with
// Section, for bodies of one block, of several and of more than maxBlock.
func TestStreamedEnvelopeLayout(t *testing.T) {
	for _, body := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("state"), 1000), benchBody()[:3*maxBlock+5]} {
		want := appendChecksum(Version, envelopeHeader("scenario", Version, body))
		var w Writer
		w.write(string(body))
		var buf bytes.Buffer
		if err := w.WriteEnvelope(&buf, "scenario"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("Writer.WriteEnvelope of a %d-byte body differs from the documented layout", len(body))
		}
		buf.Reset()
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

// TestWriterAllocatesBodyOnce: writing an 8 MiB body of nested sections
// and streaming its envelope allocates the body's bytes once, plus at
// most one block's worth of room not yet written, which a writer that
// copies its buffer as it grows cannot meet. The slack of firstBlock
// bytes covers the list of sealed blocks and the few bytes at the end of
// each that a field did not fit in. TotalAlloc counts the whole test
// binary, so the bound applies to the least of five tries.
func TestWriterAllocatesBodyOnce(t *testing.T) {
	row := make([]int32, 1<<10)
	write := func() int {
		var w Writer
		mark := w.BeginSection()
		for i := range 8 {
			inner := w.BeginSection()
			w.String(fmt.Sprintf("section %d", i))
			for j := range 256 {
				w.Count(j)
				w.I32s(row)
				w.F64(float64(j))
			}
			w.EndSection(inner)
		}
		w.EndSection(mark)
		if err := w.WriteEnvelope(io.Discard, "scenario"); err != nil {
			t.Fatal(err)
		}
		return w.size()
	}
	var body int
	alloc := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		body = write()
		runtime.ReadMemStats(&after)
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(body + maxBlock + firstBlock); alloc > limit {
		t.Fatalf("writing a %d-byte body allocated %d bytes, more than the body plus one block (%d)", body, alloc, limit)
	}
	t.Logf("a %d-byte body allocated %d bytes", body, alloc)
}

// FuzzDecodeEnvelope feeds Decode arbitrary bytes under an arbitrary
// kind. Decode must never panic; a body it accepts must be a sub-slice of
// the input; every single-byte change of an accepted envelope must be
// refused; and Encode of the accepted body must decode to the same body
// (and, for an input of the current version, reproduce it byte for byte).
func FuzzDecodeEnvelope(f *testing.F) {
	for _, body := range [][]byte{nil, []byte("state"), bytes.Repeat([]byte{0, 1, 0xff}, 40)} {
		f.Add("engine", appendChecksum(1, envelopeHeader("engine", 1, body)))
		f.Add("engine", appendChecksum(3, envelopeHeader("engine", 3, body)))
		f.Add("engine", Encode("engine", body))
	}
	f.Add("scenario", Encode("engine", []byte("state")))
	f.Add("engine", appendChecksum(2, envelopeHeader("engine", Version+1, []byte("state"))))
	f.Add("engine", []byte("PSYSNAP\x00"))
	f.Add("engine", appendChecksum(2, envelopeHeader("engine", 2, []byte("state"))))
	f.Fuzz(func(t *testing.T, kind string, data []byte) {
		body, version, err := decode(kind, data) // Decode, keeping the version
		if err != nil {
			if body != nil {
				t.Fatalf("refused envelope returned a %d-byte body: %v", len(body), err)
			}
			return
		}
		if len(body) > 0 && !subSlice(body, data) {
			t.Fatal("accepted body is not a sub-slice of the input")
		}
		// Exhaustive over every value at every position while that is
		// cheap; past 512 bytes, three values a position.
		deltas := []byte{0x01, 0x80, 0xff}
		if len(data) <= 512 {
			deltas = deltas[:0]
			for d := 1; d < 256; d++ {
				deltas = append(deltas, byte(d))
			}
		}
		bad := append([]byte(nil), data...)
		for i := range bad {
			for _, d := range deltas {
				bad[i] ^= d
				if _, err := Decode(kind, bad); err == nil {
					t.Fatalf("byte %d xor %#02x accepted", i, d)
				}
				bad[i] ^= d
			}
		}
		enc := Encode(kind, body)
		again, err := Decode(kind, enc)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("Encode of the accepted body does not decode back: %v", err)
		}
		if version == Version && !bytes.Equal(enc, data) {
			t.Fatalf("Encode of an accepted version %d envelope's body differs from it", Version)
		}
	})
}

// subSlice reports whether the non-empty sub lies within data's elements.
func subSlice(sub, data []byte) bool {
	for off := range data {
		if &data[off] == &sub[0] {
			return off+len(sub) <= len(data)
		}
	}
	return false
}

// benchBody is an 8 MB pseudo-random body for the codec benchmarks.
func benchBody() []byte {
	rng := rand.New(rand.NewPCG(9, 10))
	body := make([]byte, 8<<20)
	for i := 0; i < len(body); i += 8 {
		binary.LittleEndian.PutUint64(body[i:], rng.Uint64())
	}
	return body
}

// BenchmarkDecode verifies an 8 MB envelope of each version; its MB/s is
// the checksum's throughput, the one pass Decode makes over the body.
func BenchmarkDecode(b *testing.B) {
	body := benchBody()
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"v1", appendChecksum(1, envelopeHeader("engine", 1, body))},
		{"v4", Encode("engine", body)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(tc.enc)))
			for range b.N {
				if _, err := Decode("engine", tc.enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncode writes an 8 MB envelope of each version. Nothing in
// the package writes version 1 any more, so v1 times the test's
// hand-built encoder: the same FNV-1a pass an earlier Encode made, plus
// two body copies that are small beside it.
func BenchmarkEncode(b *testing.B) {
	body := benchBody()
	for _, tc := range []struct {
		name   string
		encode func() []byte
	}{
		{"v1", func() []byte { return appendChecksum(1, envelopeHeader("engine", 1, body)) }},
		{"v4", func() []byte { return Encode("engine", body) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(tc.encode())))
			for range b.N {
				tc.encode()
			}
		})
	}
}

// Section appends a length-prefixed body written separately, as the
// hand-built envelopes carry theirs.
func (w *Writer) Section(body []byte) {
	w.Len(len(body))
	w.write(string(body))
}

// TestNarrowFieldsRoundTrip: versions 3 and 4 write I32 and Count in 4 bytes
// each, and a reader of the current version reads back every int32 value
// and every count up to math.MaxInt32.
func TestNarrowFieldsRoundTrip(t *testing.T) {
	ids := []int{0, 1, -1, 64, math.MaxInt32, math.MinInt32}
	var w Writer
	for _, v := range ids {
		w.I32(v)
	}
	w.Count(math.MaxInt32)
	w.Count(0)
	if got, want := len(w.Bytes()), 4*(len(ids)+2); got != want {
		t.Fatalf("%d I32 and 2 Count fields take %d bytes, want %d", len(ids), got, want)
	}
	r := NewReader(w.Bytes())
	for _, want := range ids {
		if got := r.I32(); got != want {
			t.Fatalf("I32 read %d, wrote %d", got, want)
		}
	}
	if got := r.Count(0); got != 0 {
		// math.MaxInt32 items cannot fit the 4 bytes that remain.
		t.Fatalf("Count read %d", got)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "implausible count 2147483647") {
		t.Fatalf("Err = %v, want the count bounded by the remaining bytes", err)
	}
	r = NewReader(w.Bytes()[4*len(ids)+4:])
	if got := r.Count(1); got != 0 || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("Count = %d, err %v, %d bytes left", got, r.Err(), r.Remaining())
	}
}

// TestWriterRefusesNarrowOverflow: a value I32 or Count cannot hold is a
// bug in the caller, and the writer panics rather than truncate it.
func TestWriterRefusesNarrowOverflow(t *testing.T) {
	for name, write := range map[string]func(*Writer){
		"I32(1<<31)":        func(w *Writer) { w.I32(1 << 31) },
		"I32(-1<<31 - 1)":   func(w *Writer) { w.I32(-1<<31 - 1) },
		"Count(-1)":         func(w *Writer) { w.Count(-1) },
		"Count(MaxInt32+1)": func(w *Writer) { w.Count(math.MaxInt32 + 1) },
	} {
		func() {
			var w Writer
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
				if len(w.Bytes()) != 0 {
					t.Errorf("%s wrote %d bytes before panicking", name, len(w.Bytes()))
				}
			}()
			write(&w)
		}()
	}
}

// TestVersion2ReaderRefusesValuesPastInt32: a version 2 body holds I32 and
// Count fields in 8 bytes. Its reader reads every value int32 can hold and
// refuses any other instead of truncating it: 2³² + 5 must not come back
// as 5.
func TestVersion2ReaderRefusesValuesPastInt32(t *testing.T) {
	for _, v := range []int64{0, -1, math.MaxInt32, math.MinInt32} {
		var w Writer
		w.I64(v)
		r := NewVersionReader(w.Bytes(), 2)
		if got := r.I32(); int64(got) != v || r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("version 2 I32 of %d read %d (err %v)", v, got, r.Err())
		}
	}
	for _, v := range []int64{1<<32 + 5, math.MaxInt32 + 1, math.MinInt32 - 1} {
		var w Writer
		w.I64(v)
		w.I64(7)
		r := NewVersionReader(w.Bytes(), 2)
		if got := r.I32(); got != 0 {
			t.Fatalf("version 2 I32 of %d read %d", v, got)
		}
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("value %d at offset 0 is outside int32", v)) {
			t.Fatalf("version 2 I32 of %d: err %v", v, err)
		}
		if got := r.I32(); got != 0 {
			t.Fatalf("read %d after the sticky error", got)
		}
	}
	// A count past int32, with the bytes to back it in principle: refused
	// by its value, not truncated to 5.
	var w Writer
	w.Len(1<<32 + 5)
	r := NewVersionReader(w.Bytes(), 2)
	if got := r.Count(0); got != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible count 4294967301") {
		t.Fatalf("version 2 Count of 2³²+5 = %d, err %v", got, r.Err())
	}
}

// TestReaderVersions: Open and ReadEnvelope return a reader of the
// envelope's version, which Version reports, and its sections inherit the
// version and the engine's node count, which NodeCount checks.
func TestReaderVersions(t *testing.T) {
	// The same values, as version 2 and versions 3 and 4 write them.
	var wide, narrow Writer
	for _, w := range []*Writer{&wide, &narrow} {
		mark := w.BeginSection()
		if w == &wide {
			w.Len(3)
			w.Int(-7)
		} else {
			w.Count(3)
			w.I32(-7)
		}
		w.EndSection(mark)
	}
	for _, tc := range []struct {
		name    string
		version uint32
		enc     []byte
	}{
		{"v1", 1, appendChecksum(1, envelopeHeader("engine", 1, wide.Bytes()))},
		{"v2", 2, appendChecksum(2, envelopeHeader("engine", 2, wide.Bytes()))},
		{"v3", 3, appendChecksum(3, envelopeHeader("engine", 3, narrow.Bytes()))},
		{"v4", 4, Encode("engine", narrow.Bytes())},
	} {
		for _, open := range []func() (*Reader, error){
			func() (*Reader, error) { return Open("engine", tc.enc) },
			func() (*Reader, error) { return ReadEnvelope(bytes.NewReader(tc.enc), "engine") },
		} {
			r, err := open()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			r.SetNodes(3)
			sub := r.Section()
			if r.Version() != tc.version || sub.Version() != tc.version {
				t.Fatalf("%s: reader version %d, section version %d", tc.name, r.Version(), sub.Version())
			}
			if n, id := sub.NodeCount(1), sub.I32(); n != 3 || id != -7 {
				t.Fatalf("%s: read (%d, %d), want (3, -7)", tc.name, n, id)
			}
			if err := CloseSection("layer", sub); err != nil || r.Remaining() != 0 {
				t.Fatalf("%s: %v, %d bytes left", tc.name, err, r.Remaining())
			}
			r, _ = open()
			r.SetNodes(4)
			sub = r.Section()
			if n := sub.NodeCount(1); n != 0 || sub.Err() == nil || !strings.Contains(sub.Err().Error(), "section holds 3 nodes, the engine 4") {
				t.Fatalf("%s: NodeCount against an engine of 4 = %d, err %v", tc.name, n, sub.Err())
			}
		}
	}
	if r := NewVersionReader([]byte{0, 0, 0, 0}, Version+1); r.I32() != 0 || r.Err() == nil {
		t.Fatalf("a reader of version %d read a value (err %v)", Version+1, r.Err())
	}
	// Outside an engine's section, NodeCount checks nothing; NewReader
	// reads the current version.
	if r := NewReader(narrow.Bytes()[8:]); r.Version() != Version || r.NodeCount(1) != 3 || r.Err() != nil {
		t.Fatalf("NodeCount with no engine count: err %v", r.Err())
	}
}
