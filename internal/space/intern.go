package space

import (
	"fmt"
	"math"
)

// PointID is a dense integer identity for an interned canonical Point.
// IDs are assigned in interning order starting at 0, so they index directly
// into flat arrays: the protocol layers use them for generation-stamped
// membership sets and holder indexes instead of string-keyed maps.
type PointID uint32

// Interner assigns each distinct canonical Point a dense PointID, exactly
// once. The data points of a Polystyrene system form a fixed,
// generator-produced universe (the shape is the point set, Sec. III-A), so
// the whole universe is interned once at setup and every later point-set
// operation — merge, backup delta, holders lookup — works on integer IDs
// with no hashing and no string keys.
//
// Invariants callers must uphold (see also the package doc):
//
//   - Canonical points only: two points are the same identity iff their
//     coordinates are bitwise equal, so modular coordinates must be wrapped
//     into their canonical range before interning or lookup.
//   - Intern before use: every point that enters an ID-keyed structure must
//     have been interned first; IDs from one Interner are meaningless to
//     another.
//   - Immutability: the Interner retains the point; callers must never
//     mutate a point after interning it.
//
// Identity is the bit pattern: two points are the same exactly when they
// have the same dimension and bitwise equal coordinates, as Point.Key
// compares them. So +0.0 and -0.0 are distinct, and NaNs with the same
// payload are one point.
//
// The interner finds a point's ID in an open-addressing table of IDs that
// hashes the coordinates' bit patterns, so interning and lookup make no
// string key and allocate nothing per point; the table grows by doubling.
//
// An Interner is not safe for concurrent mutation; the simulation engine is
// sequential, and each engine owns (at most) one interner.
type Interner struct {
	pts []Point
	// slots holds PointID+1 per slot, 0 for an empty one. Its length is a
	// power of two, at least twice Len, so a probe always meets an empty
	// slot.
	slots []uint32
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{} }

// Intern returns the PointID of p, assigning the next dense ID if p has not
// been seen before. The interner retains p itself (points are immutable by
// convention); it does not clone.
func (in *Interner) Intern(p Point) PointID {
	if 2*(len(in.pts)+1) > len(in.slots) {
		in.grow()
	}
	i := in.find(p)
	if v := in.slots[i]; v != 0 {
		return PointID(v - 1)
	}
	id := PointID(len(in.pts))
	in.slots[i] = uint32(id) + 1
	in.pts = append(in.pts, p)
	return id
}

// InternAll interns every point of pts and returns their IDs in order.
func (in *Interner) InternAll(pts []Point) []PointID {
	ids := make([]PointID, len(pts))
	for i, p := range pts {
		ids[i] = in.Intern(p)
	}
	return ids
}

// Lookup returns the ID of an already-interned point without registering
// anything. The boolean reports whether p was known.
func (in *Interner) Lookup(p Point) (PointID, bool) {
	if len(in.slots) == 0 {
		return 0, false
	}
	v := in.slots[in.find(p)]
	return PointID(v - 1), v != 0
}

// find returns the slot that holds p's ID, or the empty slot where it
// belongs.
func (in *Interner) find(p Point) int {
	mask := len(in.slots) - 1
	for i := int(hashBits(p)) & mask; ; i = (i + 1) & mask {
		v := in.slots[i]
		if v == 0 || sameBits(in.pts[v-1], p) {
			return i
		}
	}
}

// grow doubles the table and re-inserts every interned point.
func (in *Interner) grow() {
	in.slots = make([]uint32, max(2*len(in.slots), 16))
	mask := len(in.slots) - 1
	for id, p := range in.pts {
		i := int(hashBits(p)) & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = uint32(id) + 1
	}
}

// hashBits mixes the dimension and the coordinates' bit patterns.
func hashBits(p Point) uint64 {
	h := uint64(len(p)) * 0x9e3779b97f4a7c15
	for _, c := range p {
		h = (h ^ math.Float64bits(c)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	h *= 0x94d049bb133111eb
	return h ^ h>>29
}

// sameBits reports whether p and q have the same dimension and bitwise
// equal coordinates.
func sameBits(p, q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Float64bits(p[i]) != math.Float64bits(q[i]) {
			return false
		}
	}
	return true
}

// PointOf returns the canonical point with the given ID. It panics on IDs
// the interner never assigned, as that is a programming error (an ID from a
// different interner).
func (in *Interner) PointOf(id PointID) Point {
	return in.pts[id]
}

// Len returns how many distinct points have been interned. Valid IDs are
// exactly [0, Len()).
func (in *Interner) Len() int { return len(in.pts) }

// Replace makes pts the interner's table, pts[i] taking ID i, and returns
// the table it held, for a snapshot restore that repopulates the
// interner: interning the serialized points in their original ID order
// yields the identical table, which is what keeps every PointID stored
// elsewhere in a snapshot valid after the round trip. The interner adopts
// pts rather than copying it, and re-uses its hash table when that has
// room, so replacing a table with one of the same size allocates nothing.
// A table that holds a point twice, which cannot take both IDs, is
// refused and leaves the interner as it was.
func (in *Interner) Replace(pts []Point) ([]Point, error) {
	old := in.pts
	if dup := in.load(pts); dup >= 0 {
		in.load(old)
		return nil, fmt.Errorf("space: duplicate point %v at ID %d", pts[dup], dup)
	}
	return old, nil
}

// load makes pts the table as Replace does and returns the index of the
// first point that repeats an earlier one, or -1 if none does.
func (in *Interner) load(pts []Point) int {
	size := max(len(in.slots), 16)
	for size < 2*(len(pts)+1) {
		size *= 2
	}
	if size > len(in.slots) {
		in.slots = make([]uint32, size)
	} else {
		clear(in.slots)
	}
	// Interning pts[i] appends it to pts[:i], in place.
	in.pts = pts[:0]
	for i, p := range pts {
		if in.Intern(p) != PointID(i) {
			return i
		}
	}
	return -1
}
