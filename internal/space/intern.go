package space

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
// An Interner is not safe for concurrent mutation; the simulation engine is
// sequential, and each engine owns (at most) one interner.
type Interner struct {
	byKey map[string]PointID
	pts   []Point
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{byKey: make(map[string]PointID)}
}

// Intern returns the PointID of p, assigning the next dense ID if p has not
// been seen before. The interner retains p itself (points are immutable by
// convention); it does not clone.
func (in *Interner) Intern(p Point) PointID {
	k := p.Key()
	if id, ok := in.byKey[k]; ok {
		return id
	}
	id := PointID(len(in.pts))
	in.byKey[k] = id
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
	id, ok := in.byKey[p.Key()]
	return id, ok
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

// Reset empties the interner so a snapshot restore can repopulate it.
// Re-interning the serialized points in their original ID order yields
// the identical table, which is what keeps every PointID stored elsewhere
// in a snapshot valid after the round trip.
func (in *Interner) Reset() {
	clear(in.byKey)
	in.pts = in.pts[:0]
}
