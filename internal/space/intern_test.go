package space

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestInternerAssignsDenseIDs(t *testing.T) {
	in := NewInterner()
	pts := TorusGrid(4, 3, 1)
	ids := in.InternAll(pts)
	if in.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(pts))
	}
	for i, id := range ids {
		if id != PointID(i) {
			t.Fatalf("id[%d] = %d, want dense assignment in intern order", i, id)
		}
		if !in.PointOf(id).Equal(pts[i]) {
			t.Fatalf("PointOf(%d) = %v, want %v", id, in.PointOf(id), pts[i])
		}
	}
}

func TestInternerIdempotent(t *testing.T) {
	in := NewInterner()
	a := Point{1, 2}
	id := in.Intern(a)
	if got := in.Intern(Point{1, 2}); got != id {
		t.Fatalf("re-interning equal point gave %d, want %d", got, id)
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d after duplicate intern", in.Len())
	}
	got, ok := in.Lookup(Point{1, 2})
	if !ok || got != id {
		t.Fatalf("Lookup = (%d, %v), want (%d, true)", got, ok, id)
	}
	if _, ok := in.Lookup(Point{2, 1}); ok {
		t.Fatal("Lookup found a point that was never interned")
	}
}

func TestInternerDistinguishesDimensions(t *testing.T) {
	// {1} and {1, 0} have different keys even though one prefixes the
	// other's coordinates.
	in := NewInterner()
	a := in.Intern(Point{1})
	b := in.Intern(Point{1, 0})
	if a == b {
		t.Fatal("points of different dimension interned to one ID")
	}
}

func TestInternerRetainsPoint(t *testing.T) {
	in := NewInterner()
	p := Point{3, 4}
	id := in.Intern(p)
	if &in.PointOf(id)[0] != &p[0] {
		t.Fatal("Intern should retain the point, not clone it")
	}
}

// FuzzInterner checks the round-trip laws on fuzzer-built point sets:
// Intern is idempotent and injective on distinct points, PointOf inverts
// Intern, Lookup agrees with Intern, and Len counts distinct points.
func FuzzInterner(f *testing.F) {
	f.Add([]byte{}, uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(1))
	f.Add(func() []byte {
		var b []byte
		for _, v := range []float64{0, 1, 1, 0, math.Pi, 0, 1} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}(), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, dimRaw uint8) {
		dim := 1 + int(dimRaw)%3
		var pts []Point
		for len(raw) >= 8*dim {
			p := make(Point, dim)
			valid := true
			for d := range p {
				c := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*d:]))
				if math.IsNaN(c) {
					valid = false // NaN != NaN: not a canonical coordinate
				}
				p[d] = c
			}
			raw = raw[8*dim:]
			if valid {
				pts = append(pts, p)
			}
		}

		in := NewInterner()
		ids := in.InternAll(pts)
		distinct := map[string]PointID{}
		for i, p := range pts {
			// Idempotence and Lookup agreement.
			if again := in.Intern(p); again != ids[i] {
				t.Fatalf("re-intern of %v: %d then %d", p, ids[i], again)
			}
			if got, ok := in.Lookup(p); !ok || got != ids[i] {
				t.Fatalf("Lookup(%v) = (%d, %v), want (%d, true)", p, got, ok, ids[i])
			}
			// Round trip through PointOf.
			if got := in.PointOf(ids[i]); !got.Equal(p) {
				t.Fatalf("PointOf(Intern(%v)) = %v", p, got)
			}
			// Injective on distinct points, constant on equal ones.
			k := p.Key()
			if prev, seen := distinct[k]; seen {
				if prev != ids[i] {
					t.Fatalf("equal points %v interned to %d and %d", p, prev, ids[i])
				}
			} else {
				for k2, id2 := range distinct {
					if id2 == ids[i] {
						t.Fatalf("distinct points share ID %d (%q vs %q)", ids[i], k2, k)
					}
				}
				distinct[k] = ids[i]
			}
		}
		if in.Len() != len(distinct) {
			t.Fatalf("Len = %d, want %d distinct points", in.Len(), len(distinct))
		}
		// Dense ID space: every ID below Len resolves.
		for id := 0; id < in.Len(); id++ {
			if in.PointOf(PointID(id)) == nil {
				t.Fatalf("dense ID %d has no point", id)
			}
		}
	})
}

// TestInternerBitwiseIdentity: identity is the coordinates' bit pattern
// at equal dimension, as Point.Key has it: +0.0 and −0.0 are two points,
// NaNs with one payload are one point and with two payloads two, and a
// point never matches one of another dimension, for dimensions 1 to 3.
func TestInternerBitwiseIdentity(t *testing.T) {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	negZero := math.Copysign(0, -1)
	for dim := 1; dim <= 3; dim++ {
		in := NewInterner()
		at := func(c float64) Point {
			p := make(Point, dim)
			p[dim-1] = c
			return p
		}
		ids := map[string]PointID{}
		for _, c := range []float64{0, negZero, nan1, nan2, 1, math.Inf(1), math.Inf(-1)} {
			p := at(c)
			id := in.Intern(p)
			if _, dup := ids[p.Key()]; dup {
				t.Fatalf("dim %d: test points are not distinct", dim)
			}
			ids[p.Key()] = id
		}
		if in.Len() != len(ids) {
			t.Fatalf("dim %d: %d points interned to %d IDs", dim, len(ids), in.Len())
		}
		for _, c := range []float64{0, negZero, nan1, nan2, 1, math.Inf(1), math.Inf(-1)} {
			p := at(c) // a fresh slice with the same bits
			if got := in.Intern(p); got != ids[p.Key()] {
				t.Fatalf("dim %d: re-interning %v gave %d, want %d", dim, p, got, ids[p.Key()])
			}
			if got, ok := in.Lookup(p); !ok || got != ids[p.Key()] {
				t.Fatalf("dim %d: Lookup(%v) = (%d, %v), want (%d, true)", dim, p, got, ok, ids[p.Key()])
			}
		}
		if in.Len() != len(ids) {
			t.Fatalf("dim %d: re-interning added points (Len %d)", dim, in.Len())
		}
		// The same coordinates one dimension up are other points.
		longer := append(at(1), 0)
		if id, ok := in.Lookup(longer); ok {
			t.Fatalf("dim %d: Lookup(%v) found ID %d of a point of dimension %d", dim, longer, id, dim)
		}
	}
}

// TestInternerLookupUnknown: Lookup of a point never interned reports
// false on an empty interner and on a populated one, and registers
// nothing.
func TestInternerLookupUnknown(t *testing.T) {
	in := NewInterner()
	if _, ok := in.Lookup(Point{1, 2}); ok {
		t.Fatal("an empty interner found a point")
	}
	in.InternAll(TorusGrid(16, 16, 1))
	for _, p := range []Point{{0.25, 0.5}, {16.5, 0.5}, {0.5}, {}, {0.5, 0.5, 0}} {
		if id, ok := in.Lookup(p); ok {
			t.Fatalf("Lookup(%v) found ID %d", p, id)
		}
	}
	if in.Len() != 256 {
		t.Fatalf("Lookup registered points: Len = %d", in.Len())
	}
}

// TestInternerReplaceKeepsIDs: Replace with a table in ID order gives
// every point its ID, forgets points the old table held, and returns the
// old table; a table holding one point twice is refused and leaves the
// interner as it was.
func TestInternerReplaceKeepsIDs(t *testing.T) {
	in := NewInterner()
	pts := TorusGrid(40, 20, 1)
	ids := in.InternAll(pts)
	other := TorusGrid(4, 4, 1)
	for i := range other {
		other[i] = Point{other[i][0] + 100, other[i][1]}
	}
	in.InternAll(other) // IDs 800 and up
	table := make([]Point, len(pts))
	copy(table, pts)
	old, err := in.Replace(table)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != len(pts)+len(other) || !old[len(pts)].Equal(other[0]) {
		t.Fatalf("Replace returned a table of %d points, want the %d it held", len(old), len(pts)+len(other))
	}
	if in.Len() != len(pts) {
		t.Fatalf("Len = %d after Replace, want %d", in.Len(), len(pts))
	}
	if _, ok := in.Lookup(other[0]); ok {
		t.Fatal("Lookup found a point only the old table held")
	}
	for i, p := range pts {
		if got, ok := in.Lookup(p); !ok || got != ids[i] {
			t.Fatalf("point %d: Lookup = (%d, %v), want (%d, true)", i, got, ok, ids[i])
		}
		if got := in.Intern(p); got != ids[i] {
			t.Fatalf("re-interned point %d got ID %d, want %d", i, got, ids[i])
		}
	}

	dup := append(slices.Clone(pts[:10]), pts[3])
	if _, err := in.Replace(dup); err == nil || !strings.Contains(err.Error(), "duplicate point (3, 0) at ID 10") {
		t.Fatalf("Replace of a table with a duplicate: err %v", err)
	}
	if in.Len() != len(pts) {
		t.Fatalf("a refused Replace left %d points, want %d", in.Len(), len(pts))
	}
	for i, p := range pts {
		if got, ok := in.Lookup(p); !ok || got != ids[i] {
			t.Fatalf("after a refused Replace, point %d: Lookup = (%d, %v)", i, got, ok)
		}
	}
}

// TestInternerAllocsNothingOnceSized: re-interning a known point and
// looking one up allocate nothing, nor does Replace with a table the hash
// table has room for, nor interning new points into a table sized for
// them.
func TestInternerAllocsNothingOnceSized(t *testing.T) {
	if testing.Short() {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	pts := TorusGrid(64, 32, 1)
	in := NewInterner()
	in.InternAll(pts)
	if a := testing.AllocsPerRun(10, func() {
		for _, p := range pts {
			in.Intern(p)
			in.Lookup(p)
		}
	}); a != 0 {
		t.Fatalf("re-interning and looking up %d points made %.0f allocations", len(pts), a)
	}
	table := slices.Clone(pts)
	if a := testing.AllocsPerRun(10, func() {
		if _, err := in.Replace(table); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("Replace with %d points made %.0f allocations", len(pts), a)
	}
	// Emptied by Replace, a table with the capacity takes the points
	// anew, one Intern each, without allocating.
	buf := make([]Point, 0, len(pts))
	if a := testing.AllocsPerRun(10, func() {
		if _, err := in.Replace(buf[:0]); err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if in.Intern(p) != PointID(i) {
				t.Fatal("a new point took another ID")
			}
		}
	}); a != 0 {
		t.Fatalf("interning %d new points into a sized table made %.0f allocations", len(pts), a)
	}
}
