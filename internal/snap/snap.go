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
// That layout is version 2. Version 1 is the same layout with a 64-bit
// FNV-1a checksum in the trailer; Decode still reads it, and nothing
// writes it any more. The version picks the checksum algorithm, so it is
// the one field Decode trusts before the checksum: CRC-32C (Castagnoli)
// runs on the SSE4.2 CRC32 instruction, several times faster than the
// byte-serial FNV-1a chain on a multi-megabyte snapshot.
//
// A section is a length-prefixed nested body that the code owning it
// reads through a bounded sub-reader. Writers build sections in place:
// BeginSection reserves the length, the owner writes its body straight
// into the same buffer, and EndSection patches the length in, so no body
// is ever copied. The buffer grows by doubling, and WriteEnvelope streams
// the header, the body and the checksum without assembling the file
// first.
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
// versions 1 and 2 and writes 2; the two differ only in the trailing
// checksum's algorithm (FNV-1a for 1, CRC-32C for 2), so a body decoded
// from either is the same bytes. Any other version is refused outright.
const Version = 2

var magic = [8]byte{'P', 'S', 'Y', 'S', 'N', 'A', 'P', 0}

// castagnoli is the CRC-32C table; hash/crc32 uses the SSE4.2 CRC32
// instruction for it where the CPU has one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer accumulates a snapshot body in memory.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated body. The slice aliases the writer's
// internal buffer and is invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// grow makes room for n more bytes. It doubles the buffer rather than
// following append's policy, which grows large slices by only 1.25x and
// so copies a 58 MB body several times over.
func (w *Writer) grow(n int) {
	if cap(w.buf)-len(w.buf) >= n {
		return
	}
	buf := make([]byte, len(w.buf), max(2*cap(w.buf), len(w.buf)+n, 256))
	copy(buf, w.buf)
	w.buf = buf
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

// Len appends a non-negative count. Restore reads it back with
// Reader.Len, which bounds it against the remaining input.
func (w *Writer) Len(n int) { w.U64(uint64(n)) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.grow(len(s))
	w.buf = append(w.buf, s...)
}

// BeginSection starts a section written in place: it reserves the
// section's length and returns the mark EndSection needs. Everything
// written in between is the section body; the result is the body's
// length (as Len writes it) followed by the body. Sections nest.
func (w *Writer) BeginSection() int {
	w.U64(0)
	return len(w.buf)
}

// EndSection closes the section BeginSection opened at mark by patching
// its length in.
func (w *Writer) EndSection(mark int) {
	binary.LittleEndian.PutUint64(w.buf[mark-8:mark], uint64(len(w.buf)-mark))
}

// Reader consumes a snapshot body produced by Writer. The first
// malformed read latches an error; every later call is a no-op returning
// zero values.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader over body.
func NewReader(body []byte) *Reader { return &Reader{data: body} }

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

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
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
func (r *Reader) Len(itemBytes int) int {
	v := r.U64()
	if r.err != nil {
		return 0
	}
	if itemBytes < 1 {
		itemBytes = 1
	}
	if v > uint64(r.Remaining()/itemBytes) {
		r.fail("implausible count %d at offset %d (%d bytes remain)", v, r.off-8, r.Remaining())
		return 0
	}
	return int(v)
}

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
// sub-reader over it.
func (r *Reader) Section() *Reader {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return &Reader{err: r.err}
	}
	return NewReader(b)
}

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

// header writes the envelope's header for a body of bodyLen bytes into w.
func header(w *Writer, kind string, bodyLen int) {
	w.grow(len(magic))
	w.buf = append(w.buf, magic[:]...)
	w.String(kind)
	w.U32(Version)
	w.Len(bodyLen)
}

// Encode wraps a body in the version 2 envelope.
func Encode(kind string, body []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(magic) + 8 + len(kind) + 4 + 8 + len(body) + 8)
	_ = WriteEnvelope(&buf, kind, body) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// FileSum returns the checksum of the whole of an envelope that Decode
// has accepted, under the envelope's own version: FNV-1a for version 1,
// CRC-32C zero-extended for version 2. The trailing checksum is the
// algorithm's state after every byte before it, so the sum continues that
// state over the checksum's own eight bytes instead of hashing the file
// again. On an envelope Decode would refuse the result is meaningless.
func FileSum(envelope []byte) uint64 {
	tail := envelope[len(envelope)-8:]
	stored := binary.LittleEndian.Uint64(tail)
	if envelopeVersion(envelope) == 1 {
		const prime64 = 1099511628211
		h := stored
		for _, c := range tail {
			h ^= uint64(c)
			h *= prime64
		}
		return h
	}
	return uint64(crc32.Update(uint32(stored), castagnoli, tail))
}

// envelopeVersion reads the version field of a structurally valid
// envelope: it follows the magic and the length-prefixed kind.
func envelopeVersion(envelope []byte) uint32 {
	kindLen := binary.LittleEndian.Uint64(envelope[len(magic):])
	return binary.LittleEndian.Uint32(envelope[uint64(len(magic))+8+kindLen:])
}

// Decode verifies an envelope end to end — magic, kind, version, body
// length and the checksum over every byte before it — and returns the
// body. It never returns a partially validated body: any defect yields a
// nil body and an error. It reads versions 1 and 2, verifying each with
// its own checksum algorithm.
//
// Truncation classes are diagnosed before the checksum so an interrupted
// or torn write produces an actionable message ("empty snapshot",
// "declares an N-byte body but only M remain") rather than a generic
// corruption report. The version is checked next, since it names the
// checksum's algorithm; the checksum then covers every defect the
// structural checks cannot see, and the kind is checked last.
func Decode(kind string, data []byte) ([]byte, error) {
	const tail = 8 // trailing checksum
	if len(data) == 0 {
		return nil, fmt.Errorf("snap: empty snapshot (0 bytes): not a snapshot envelope")
	}
	if len(data) < len(magic) {
		return nil, fmt.Errorf("snap: truncated snapshot: %d bytes is shorter than the %d-byte magic (interrupted write?)",
			len(data), len(magic))
	}
	var m [8]byte
	copy(m[:], data)
	if m != magic {
		return nil, fmt.Errorf("snap: bad magic %q: not a snapshot file", m[:])
	}
	if len(data) < len(magic)+tail {
		return nil, fmt.Errorf("snap: header-only snapshot: %d bytes cannot hold the trailing checksum (interrupted write?)",
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
		return nil, fmt.Errorf("snap: truncated snapshot: envelope declares a %d-byte body but only %d bytes remain (interrupted write?)",
			bodyLen, r.Remaining())
	}
	body := r.take(int(bodyLen))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("snap: malformed envelope header: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("snap: %d trailing bytes after body", r.Remaining())
	}
	var sum uint64
	switch version {
	case 1:
		h := fnv.New64a()
		h.Write(data[:len(data)-tail])
		sum = h.Sum64()
	case 2:
		sum = uint64(crc32.Checksum(data[:len(data)-tail], castagnoli))
	default:
		return nil, fmt.Errorf("snap: unsupported snapshot version %d (this build reads versions 1 and 2)", version)
	}
	if got := binary.LittleEndian.Uint64(data[len(data)-tail:]); got != sum {
		return nil, fmt.Errorf("snap: checksum mismatch: file %#016x, computed %#016x (corrupted snapshot)", got, sum)
	}
	if gotKind != kind {
		return nil, fmt.Errorf("snap: snapshot kind %q, want %q", gotKind, kind)
	}
	return body, nil
}

// WriteEnvelope writes body to w in the version 2 envelope, streamed:
// the header, the body slice itself and the CRC-32C of both, so the body
// is never copied.
func WriteEnvelope(w io.Writer, kind string, body []byte) error {
	var hw Writer
	header(&hw, kind, len(body))
	crc := crc32.Update(crc32.Checksum(hw.buf, castagnoli), castagnoli, body)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], uint64(crc))
	for _, b := range [][]byte{hw.buf, body, sum[:]} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// ReadEnvelope buffers all of r and decodes it. Snapshots are verified
// whole-file before any restore begins, so streaming decode is
// deliberately not offered.
func ReadEnvelope(r io.Reader, kind string) ([]byte, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("snap: reading snapshot: %w", err)
	}
	return Decode(kind, data)
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
