// Package snap implements the binary snapshot codec used by the
// deterministic checkpoint/restore machinery.
//
// A snapshot file is a single envelope:
//
//	magic    8 bytes  "PSYSNAP\x00"
//	kind     length-prefixed string ("engine", "scenario", "system", ...)
//	version  uint32
//	bodyLen  uint64
//	body     bodyLen bytes
//	checksum uint64 CRC-32C over every preceding byte, zero-extended
//
// All integers are little-endian. The body itself is a flat stream of
// length-prefixed primitives written by Writer and consumed by Reader.
// Decode verifies the magic, kind, version, length and checksum before
// returning the body, so callers can guarantee that a corrupted or
// truncated snapshot is rejected before any state has been mutated.
//
// That layout is versions 2 to 4. Version 1 is the same layout with a
// 64-bit FNV-1a checksum in the trailer. The version picks the checksum
// algorithm, so it is the one field Decode trusts before the checksum:
// CRC-32C (Castagnoli) runs on the SSE4.2 CRC32 instruction, several
// times faster than the byte-serial FNV-1a chain on a multi-megabyte
// snapshot.
//
// Versions 2 to 4 differ in the body. Version 3 writes every node ID,
// every per-node count and every rps age in 4 bytes (Writer.I32 and
// Writer.Count); versions 1 and 2 wrote them as 8-byte Int and Len
// fields. PointIDs take 4 bytes in every version, and everything else —
// RNG state, rounds, meter costs, coordinates, strings and section
// lengths — keeps 8. Only this package decides a field's width: a Reader
// knows its body's version, and its I32 and Count read the field that
// version wrote, refusing an 8-byte one outside int32 rather than
// truncating it. Version 4 has version 3's widths and drops a section
// the core layer no longer keeps (its holders index); the layer asks
// Reader.Version whether the section is there. So one RestoreState per
// layer reads all four versions, and nothing writes versions 1 to 3 any
// more.
//
// A section is a length-prefixed nested body that the code owning it
// reads through a bounded sub-reader. Writers build sections in place:
// BeginSection reserves the length, the owner writes its body straight
// into the same body, and EndSection patches the length in, so no section
// is written twice. A Writer holds its body as a list of blocks: when a
// write does not fit, the current block is sealed and a larger one, up to
// a fixed cap, starts. No written byte is ever copied, and a body of any
// size costs itself plus at most one block. Writer.WriteEnvelope streams
// the header, each block and the checksum without assembling the file;
// Bytes flattens the blocks for a caller that needs one slice.
//
// Reader carries a sticky error: after the first malformed read every
// subsequent call returns a zero value, and the error is reported once at
// the end via Err. That keeps restore code linear — no per-field error
// plumbing — without ever silently accepting bad data.
//
// Restores allocate from an Arena: the many small per-node slices of a
// layer's state are carved, with exact capacity, out of shared chunks,
// so a restore costs one allocation per chunk instead of one per object.
package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
)

// Version is the snapshot format version this build writes. It reads
// versions 1 to 4 and writes 4. Versions 1 and 2 differ only in the
// trailing checksum's algorithm (FNV-1a for 1, CRC-32C from 2 on);
// version 3 narrows the body's ID and count fields to 4 bytes, and
// version 4 drops the core layer's holders section (see the package
// doc). Any other version is refused outright.
const Version = 4

var magic = [8]byte{'P', 'S', 'Y', 'S', 'N', 'A', 'P', 0}

// castagnoli is the CRC-32C table; hash/crc32 uses the SSE4.2 CRC32
// instruction for it where the CPU has one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Block sizes of a Writer: the first block holds firstBlock bytes, each
// later one twice its predecessor, up to maxBlock.
const (
	firstBlock = 4 << 10
	maxBlock   = 1 << 20
)

// Writer accumulates a snapshot body in memory, as a list of blocks.
// When a write does not fit in the current block, the block is sealed and
// a larger one starts, so no written byte is ever copied or zeroed twice
// and a body of any size is held with at most one block to spare. The
// zero Writer is ready to use.
type Writer struct {
	buf    []byte   // the current block, written by appending
	sealed [][]byte // the full blocks before buf, in body order
	off    int      // the body offset of buf[0]: the bytes in sealed
}

// size returns the number of body bytes written so far.
func (w *Writer) size() int { return w.off + len(w.buf) }

// Bytes returns the accumulated body. A body that spans several blocks
// is flattened into one on the first call; the slice aliases the
// writer's internal buffer and is invalidated by further writes.
func (w *Writer) Bytes() []byte {
	if len(w.sealed) > 0 {
		flat := make([]byte, 0, w.size())
		for b := range w.blocks {
			flat = append(flat, b...)
		}
		w.buf, w.sealed, w.off = flat, nil, 0
	}
	return w.buf
}

// blocks yields the body's blocks in order.
func (w *Writer) blocks(yield func([]byte) bool) {
	for _, b := range w.sealed {
		if !yield(b) {
			return
		}
	}
	yield(w.buf)
}

// grow makes room for n contiguous bytes, n at most firstBlock, by
// starting the next block if the current one has less than n left.
func (w *Writer) grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.next()
	}
}

// next seals the current block and starts the next one, twice the size
// of the last up to maxBlock.
func (w *Writer) next() {
	if len(w.buf) > 0 {
		w.sealed = append(w.sealed, w.buf)
		w.off += len(w.buf)
	}
	w.buf = make([]byte, 0, min(max(2*cap(w.buf), firstBlock), maxBlock))
}

// write appends the bytes of s, spilling into as many new blocks as it
// takes.
func (w *Writer) write(s string) {
	for len(s) > 0 {
		if len(w.buf) == cap(w.buf) {
			w.next()
		}
		n := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf = w.buf[:len(w.buf)+n]
		s = s[n:]
	}
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.grow(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.grow(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// I64 appends a signed integer as its two's-complement uint64 image.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int via I64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 by bit pattern, preserving NaN payloads and ±Inf.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a single 0/1 byte.
func (w *Writer) Bool(v bool) {
	w.grow(1)
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Len appends a non-negative count in 8 bytes. Restore reads it back with
// Reader.Len, which bounds it against the remaining input.
func (w *Writer) Len(n int) { w.U64(uint64(n)) }

// I32 appends an int32-ranged value — a node ID, an rps age — in 4 bytes.
// Every such value is bounded by construction, so one outside int32 is a
// bug, and I32 panics rather than truncate it.
func (w *Writer) I32(v int) {
	if v != int(int32(v)) {
		panic("snap: Writer.I32 of a value outside int32")
	}
	w.U32(uint32(v))
}

// I32s appends every value of src as I32 would.
func (w *Writer) I32s(src []int32) { U32s(w, src) }

// U32s appends every value of src in 4 bytes, as U32 would one by one. It
// fills each block's free room with one loop, instead of growing the
// body value by value, so a view's row or a node's replica IDs are
// written in bulk.
func U32s[T ~int32 | ~uint32](w *Writer, src []T) {
	for len(src) > 0 {
		if cap(w.buf)-len(w.buf) < 4 {
			w.next()
		}
		n := min(len(src), (cap(w.buf)-len(w.buf))/4)
		b := w.buf[len(w.buf) : len(w.buf)+4*n]
		for _, v := range src[:n] {
			binary.LittleEndian.PutUint32(b, uint32(v))
			b = b[4:]
		}
		w.buf = w.buf[:len(w.buf)+4*n]
		src = src[n:]
	}
}

// Count appends a non-negative count of at most math.MaxInt32 — a node
// count, a view's length — in 4 bytes. Restore reads it back with
// Reader.Count, which bounds it against the remaining input. Like I32 it
// panics on a value it cannot hold.
func (w *Writer) Count(n int) {
	if uint(n) > math.MaxInt32 {
		panic("snap: Writer.Count of a count outside [0, MaxInt32]")
	}
	w.U32(uint32(n))
}

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.write(s)
}

// BeginSection starts a section written in place: it reserves the
// section's length and returns the mark EndSection needs, the body offset
// just past the reservation. Everything written in between is the section
// body; the result is the body's length (as Len writes it) followed by
// the body. Sections nest.
func (w *Writer) BeginSection() int {
	w.U64(0) // contiguous: U64 never splits its 8 bytes across blocks
	return w.size()
}

// EndSection closes the section BeginSection opened at mark by patching
// its length into whichever block holds the reservation.
func (w *Writer) EndSection(mark int) {
	n, b, start := uint64(w.size()-mark), w.buf, w.off
	for i := len(w.sealed) - 1; mark-8 < start; i-- {
		b = w.sealed[i]
		start -= len(b)
	}
	binary.LittleEndian.PutUint64(b[mark-8-start:], n)
}

// Reader consumes a snapshot body produced by Writer. The first
// malformed read latches an error; every later call is a no-op returning
// zero values.
type Reader struct {
	data []byte
	off  int
	err  error
	// version is the body's format version; a version 1 or 2 body's I32
	// and Count fields are 8 bytes (see wide).
	version uint32
	// nodes is the node count of the engine whose section this is, or -1
	// when the reader is not an engine's layer section (see SetNodes).
	nodes int
}

// NewReader returns a reader over a body in the current format, such as
// a zero Writer writes.
func NewReader(body []byte) *Reader { return &Reader{data: body, version: Version, nodes: -1} }

// NewVersionReader returns a reader over a body of the given format
// version, as Open decodes one. A version this build cannot read yields a
// reader whose every call fails.
func NewVersionReader(body []byte, version uint32) *Reader {
	r := &Reader{data: body, version: version, nodes: -1}
	if version < 1 || version > Version {
		r.fail("unsupported body version %d", version)
	}
	return r
}

// Version returns the format version of the body r reads: the current
// Version for a NewReader, the envelope's for one Open returns. A layer
// reads a field that only older versions carry by asking it.
func (r *Reader) Version() uint32 { return r.version }

// wide reports a version 1 or 2 body, whose I32 and Count fields are 8
// bytes.
func (r *Reader) wide() bool { return r.version < 3 }

// Err reports the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left unread.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail("truncated body: need %d bytes at offset %d, have %d", n, r.off, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads a little-endian uint64. U64 and U32 read an in-bounds field
// inline; past the end, take latches the truncation error.
func (r *Reader) U64() uint64 {
	if b := r.data[r.off:]; len(b) >= 8 && r.err == nil {
		r.off += 8
		return binary.LittleEndian.Uint64(b)
	}
	r.take(8)
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.data[r.off:]; len(b) >= 4 && r.err == nil {
		r.off += 4
		return binary.LittleEndian.Uint32(b)
	}
	r.take(4)
	return 0
}

// I64 reads a signed integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int via I64.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a single byte, rejecting anything but 0 or 1.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte %#x at offset %d", b[0], r.off-1)
		return false
	}
}

// Len reads a count written by Writer.Len and bounds it: each counted
// item must occupy at least itemBytes of the remaining input (use 1 for
// variable-size items). This caps allocation on malformed input so a bad
// length fails cleanly instead of attempting a huge make().
func (r *Reader) Len(itemBytes int) int { return r.bound(r.U64(), 8, itemBytes, math.MaxInt) }

// bound refuses a count v, just read from a field of width bytes, that
// exceeds limit or claims more items of itemBytes each than remain.
func (r *Reader) bound(v uint64, width, itemBytes int, limit uint64) int {
	if r.err != nil {
		return 0
	}
	if itemBytes < 1 {
		itemBytes = 1
	}
	if v > limit || v > uint64(r.Remaining()/itemBytes) {
		r.fail("implausible count %d at offset %d (%d bytes remain)", v, r.off-width, r.Remaining())
		return 0
	}
	return int(v)
}

// I32 reads a value written by Writer.I32: 4 bytes from a version 3 or 4
// body, 8 from a version 1 or 2 one, where a value outside int32 is
// refused.
func (r *Reader) I32() int {
	if !r.wide() {
		return int(int32(r.U32()))
	}
	return r.wideI32()
}

// I32s reads len(dst) values written by Writer.I32 into dst, as I32
// would one by one. From a version 3 or 4 body it takes all their bytes
// at once, so a restore decodes a view's row in one tight loop.
func (r *Reader) I32s(dst []int32) {
	if r.wide() {
		for i := range dst {
			dst[i] = int32(r.wideI32())
		}
		return
	}
	b := r.take(4 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// wideI32 is I32 from a version 1 or 2 body.
func (r *Reader) wideI32() int {
	v := r.I64()
	if r.err == nil && v != int64(int32(v)) {
		r.fail("value %d at offset %d is outside int32", v, r.off-8)
		return 0
	}
	return int(v)
}

// Count reads a count written by Writer.Count — 4 bytes from a version 3
// or 4 body, 8 from a version 1 or 2 one — and bounds it as Len does; a count
// past math.MaxInt32 is refused too.
func (r *Reader) Count(itemBytes int) int {
	var v uint64
	width := 4
	if r.wide() {
		v, width = r.U64(), 8
	} else {
		v = uint64(r.U32())
	}
	return r.bound(v, width, itemBytes, math.MaxInt32)
}

// NodeCount reads the Count that opens a layer's section, the number of
// nodes it holds state for, and refuses one other than the node count of
// the engine the section belongs to (see SetNodes).
func (r *Reader) NodeCount(itemBytes int) int {
	n := r.Count(itemBytes)
	if r.err == nil && r.nodes >= 0 && n != r.nodes {
		r.fail("section holds %d nodes, the engine %d", n, r.nodes)
		return 0
	}
	return n
}

// SetNodes records the node count of the engine whose layer section r
// reads, for NodeCount to check against; sections r opens inherit it.
func (r *Reader) SetNodes(n int) { r.nodes = n }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Section reads a length-prefixed nested body and returns a bounded
// sub-reader over it, of the same version and engine node count. It is
// small enough to inline, so a caller that keeps the sub-reader by value
// does not allocate it.
func (r *Reader) Section() *Reader {
	b := r.sectionBody()
	return &Reader{data: b, err: r.err, version: r.version, nodes: r.nodes}
}

// sectionBody reads a section's length and returns its body.
func (r *Reader) sectionBody() []byte { return r.take(r.Len(1)) }

// CloseSection folds a sub-reader's outcome back into an error: the
// section must have decoded cleanly and been consumed exactly.
func CloseSection(name string, sub *Reader) error {
	if err := sub.Err(); err != nil {
		return fmt.Errorf("snap: section %q: %w", name, err)
	}
	if sub.Remaining() != 0 {
		return fmt.Errorf("snap: section %q: %d trailing bytes", name, sub.Remaining())
	}
	return nil
}

// header returns the envelope's header for a body of bodyLen bytes.
func header(kind string, bodyLen int) []byte {
	b := make([]byte, 0, len(magic)+8+len(kind)+4+8)
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(kind)))
	b = append(b, kind...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	return binary.LittleEndian.AppendUint64(b, uint64(bodyLen))
}

// Encode wraps a body in the current envelope.
func Encode(kind string, body []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(magic) + 8 + len(kind) + 4 + 8 + len(body) + 8)
	_ = WriteEnvelope(&buf, kind, body) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// WriteEnvelope writes an already flat body to w in the current envelope,
// as Writer.WriteEnvelope does a body written through a Writer.
func WriteEnvelope(w io.Writer, kind string, body []byte) error {
	bw := Writer{buf: body}
	return bw.WriteEnvelope(w, kind)
}

// Decode verifies an envelope end to end — magic, kind, version, body
// length and the checksum over every byte before it — and returns the
// body. It never returns a partially validated body: any defect yields a
// nil body and an error. It reads versions 1 to 4, verifying each with
// its own checksum algorithm. A body of an older version must be read
// through a Reader of its version, which Open returns.
//
// Truncation classes are diagnosed before the checksum so an interrupted
// or torn write produces an actionable message ("empty snapshot",
// "declares an N-byte body but only M remain") rather than a generic
// corruption report. The version is checked next, since it names the
// checksum's algorithm; the checksum then covers every defect the
// structural checks cannot see, and the kind is checked last.
func Decode(kind string, data []byte) ([]byte, error) {
	body, _, err := decode(kind, data)
	return body, err
}

// Open is Decode returning a Reader over the body that knows the
// envelope's version.
func Open(kind string, data []byte) (*Reader, error) {
	body, version, err := decode(kind, data)
	if err != nil {
		return nil, err
	}
	return NewVersionReader(body, version), nil
}

// decode is Decode, also returning the envelope's version.
func decode(kind string, data []byte) ([]byte, uint32, error) {
	const tail = 8 // trailing checksum
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("snap: empty snapshot (0 bytes): not a snapshot envelope")
	}
	if len(data) < len(magic) {
		return nil, 0, fmt.Errorf("snap: truncated snapshot: %d bytes is shorter than the %d-byte magic (interrupted write?)",
			len(data), len(magic))
	}
	var m [8]byte
	copy(m[:], data)
	if m != magic {
		return nil, 0, fmt.Errorf("snap: bad magic %q: not a snapshot file", m[:])
	}
	if len(data) < len(magic)+tail {
		return nil, 0, fmt.Errorf("snap: header-only snapshot: %d bytes cannot hold the trailing checksum (interrupted write?)",
			len(data))
	}
	// Structural pass over the unverified envelope, tail excluded: a
	// truncated file is reported as such, with the declared-vs-present
	// byte counts, instead of as a bare checksum mismatch.
	r := NewReader(data[len(magic) : len(data)-tail])
	gotKind := r.String()
	version := r.U32()
	bodyLen := r.U64()
	if r.Err() == nil && bodyLen > uint64(r.Remaining()) {
		return nil, 0, fmt.Errorf("snap: truncated snapshot: envelope declares a %d-byte body but only %d bytes remain (interrupted write?)",
			bodyLen, r.Remaining())
	}
	body := r.take(int(bodyLen))
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("snap: malformed envelope header: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, 0, fmt.Errorf("snap: %d trailing bytes after body", r.Remaining())
	}
	var sum uint64
	switch version {
	case 1:
		h := fnv.New64a()
		h.Write(data[:len(data)-tail])
		sum = h.Sum64()
	case 2, 3, 4:
		sum = uint64(crc32.Checksum(data[:len(data)-tail], castagnoli))
	default:
		return nil, 0, fmt.Errorf("snap: unsupported snapshot version %d (this build reads versions 1 to 4)", version)
	}
	if got := binary.LittleEndian.Uint64(data[len(data)-tail:]); got != sum {
		return nil, 0, fmt.Errorf("snap: checksum mismatch: file %#016x, computed %#016x (corrupted snapshot)", got, sum)
	}
	if gotKind != kind {
		return nil, 0, fmt.Errorf("snap: snapshot kind %q, want %q", gotKind, kind)
	}
	return body, version, nil
}

// WriteEnvelope writes the body accumulated in w to dst in the current
// envelope, streamed: the header, each of the body's blocks and the
// CRC-32C of them all, so the body is never copied or flattened.
func (w *Writer) WriteEnvelope(dst io.Writer, kind string) error {
	hdr := header(kind, w.size())
	if _, err := dst.Write(hdr); err != nil {
		return err
	}
	crc := crc32.Checksum(hdr, castagnoli)
	for b := range w.blocks {
		if _, err := dst.Write(b); err != nil {
			return err
		}
		crc = crc32.Update(crc, castagnoli, b)
	}
	_, err := dst.Write(binary.LittleEndian.AppendUint64(nil, uint64(crc)))
	return err
}

// ReadEnvelope buffers all of r and opens it as Open does. Snapshots are
// verified whole-file before any restore begins, so streaming decode is
// deliberately not offered.
func ReadEnvelope(r io.Reader, kind string) (*Reader, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("snap: reading snapshot: %w", err)
	}
	return Open(kind, data)
}

// readAll is io.ReadAll with the buffer sized up front from what r
// reports about itself: Len() for bytes.Reader and bytes.Buffer, Stat()
// for a regular *os.File. It still reads to EOF, so a wrong size costs a
// regrowth, never a wrong result.
func readAll(r io.Reader) ([]byte, error) {
	size := 512
	switch s := r.(type) {
	case interface{ Len() int }:
		size = s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	// One spare byte lets the read that reports EOF run without a regrowth.
	buf := make([]byte, 0, max(size, 0)+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// arenaChunk is the number of elements an Arena allocates at a time.
const arenaChunk = 16 << 10

// Arena hands out slices carved from shared chunks, so restoring many
// small per-node slices costs one allocation per chunk rather than one
// per slice. Every slice it returns is zeroed and has len == cap: an
// append to it always reallocates and so can never write into the slice
// carved next to it. A chunk stays reachable while any slice carved from
// it is. The zero Arena is ready to use.
type Arena[T any] struct {
	free []T
}

// Take returns a zeroed slice of n elements with capacity n. A request
// larger than a chunk gets an allocation of its own.
func (a *Arena[T]) Take(n int) []T {
	if n > len(a.free) {
		if n > arenaChunk {
			return make([]T, n)
		}
		a.free = make([]T, arenaChunk)
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}
