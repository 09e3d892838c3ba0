// Package space defines the metric data spaces that Polystyrene shapes live
// in, together with the geometric primitives the protocol needs: distances,
// medoids, centroids and diameters.
//
// The paper (Sec. III-A) only requires the data space to be metric: "the
// only constraint on this data space is that a distance can be computed
// between any two data points". We therefore expose a minimal Space
// interface and several implementations, including the modular 2D torus
// used throughout the paper's evaluation, in which scalar division is ill
// defined and the medoid must be used instead of the centroid (Sec. III-C).
//
// # Point identity and interning
//
// Data points originate from a fixed generator and are never
// arithmetically perturbed afterwards, so identity is exact coordinate
// equality (Point.Equal) and the whole point universe can be interned once
// into dense integer PointIDs (see Interner). The ID-keyed protocol and
// metric layers depend on three invariants: points entering an interner
// are canonical (wrap modular coordinates first — e.g. Torus.Wrap — so
// bitwise equality is identity), every point is interned before its ID is
// used anywhere, and interned points are immutable.
package space

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Point is a position in a data space. Points are treated as immutable
// values: protocols copy them at ownership boundaries and never mutate a
// point in place after it has been published.
type Point []float64

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are the same point (same dimension and
// exactly equal coordinates). Data points in this system originate from a
// fixed generator and are never arithmetically perturbed, so exact float
// comparison is the correct notion of identity.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string usable as a map key identifying the point.
func (p Point) Key() string {
	var b strings.Builder
	b.Grow(8 * len(p))
	var buf [8]byte
	for _, c := range p {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c))
		b.Write(buf[:])
	}
	return b.String()
}

// String renders the point for logs and test failures, e.g. "(3, 4.5)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Space is a metric space over Points of a fixed dimension.
//
// Implementations must satisfy the metric axioms (up to floating point):
// non-negativity, identity of indiscernibles, symmetry, and the triangle
// inequality. The property tests in this package check these on samples.
type Space interface {
	// Dim returns the dimensionality points must have.
	Dim() int
	// Distance returns the metric distance between a and b. It panics if
	// the points have the wrong dimension, as that is a programming error.
	Distance(a, b Point) float64
}

// checkDim panics when a point does not match the space dimension.
func checkDim(dim int, p Point) {
	if len(p) != dim {
		panic(fmt.Sprintf("space: point %v has dimension %d, space wants %d", p, len(p), dim))
	}
}

// Euclidean is the standard Euclidean metric over R^dim.
type Euclidean struct {
	dim int
}

var _ Space = Euclidean{}

// NewEuclidean returns the Euclidean space of the given dimension.
func NewEuclidean(dim int) Euclidean {
	if dim <= 0 {
		panic("space: NewEuclidean requires dim > 0")
	}
	return Euclidean{dim: dim}
}

// Dim implements Space.
func (e Euclidean) Dim() int { return e.dim }

// Distance implements Space.
func (e Euclidean) Distance(a, b Point) float64 {
	checkDim(e.dim, a)
	checkDim(e.dim, b)
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		// float64(x*y) rounds the product alone, so no GOARCH fuses it into the sum (scripts/nofma.sh).
		sum += float64(d * d)
	}
	return math.Sqrt(sum)
}

// Torus is a flat torus: each coordinate i lives on a circle of
// circumference Widths[i] and distances wrap around. This is the "logical
// torus" of the paper's evaluation (an 80x40 grid with step 1 lives on a
// Torus with widths {80, 40}).
type Torus struct {
	widths []float64
}

var _ Space = Torus{}

// NewTorus returns a torus with the given per-dimension circumferences.
func NewTorus(widths ...float64) Torus {
	if len(widths) == 0 {
		panic("space: NewTorus requires at least one width")
	}
	ws := make([]float64, len(widths))
	for i, w := range widths {
		if w <= 0 {
			panic("space: NewTorus widths must be positive")
		}
		ws[i] = w
	}
	return Torus{widths: ws}
}

// NewRing returns a one-dimensional torus (a ring) of the given
// circumference — the key space of ring overlays such as Chord or Pastry.
func NewRing(circumference float64) Torus {
	return NewTorus(circumference)
}

// Dim implements Space.
func (t Torus) Dim() int { return len(t.widths) }

// Width returns the circumference of dimension i.
func (t Torus) Width(i int) float64 { return t.widths[i] }

// Distance implements Space. Along each dimension the distance is the
// shorter of the two arcs between the coordinates.
func (t Torus) Distance(a, b Point) float64 {
	checkDim(len(t.widths), a)
	checkDim(len(t.widths), b)
	sum := 0.0
	for i := range a {
		d := wrapDelta(a[i]-b[i], t.widths[i])
		sum += float64(d * d)
	}
	return math.Sqrt(sum)
}

// wrapDelta returns the magnitude of the shorter arc for a signed
// difference on a circle of circumference w.
//
// Coordinates in this system are canonical (in [0, w)) in the overwhelming
// majority of calls, so |d| < w and the math.Mod reduction — the single
// most expensive operation of the whole distance hot path — can be skipped.
// Both branches compute identical values: for |d| < w, math.Mod(d, w)
// returns d exactly.
//
// The magnitude is math.Abs rather than a branch on the sign, which the
// predictor cannot learn when targets lie on every side. The two agree bit
// for bit except at d = -0.0, where Abs gives +0.0; neither reaches the
// reductions below, and both square to +0.0, so every distance is the same.
//
// The shorter arc is min(d, w-d), again with no branch. That branch was
// far from a coin flip: in RowDistances on the 320x160 grid (seed 1,
// K = 4), 15% of deltas pass the half width in round 3 and 6% from round
// 20 on, in no pattern a predictor could learn (successive outcomes
// differ about as often as independent draws would). The arc was never timed
// alone; it rests on the round times measured together with topk's
// shift-sort insertion. It equals
// the test "if d > w/2 { d = w - d }" bit for bit for every normal w. For
// d in [w/2, w), Sterbenz's lemma makes w-d exact, so min picks w-d
// exactly when d > w/2, and at d = w/2 both arcs are the same value; for
// d < w/2, w-d rounds to no less than the exact half w/2 > d.
func wrapDelta(d, w float64) float64 {
	d = math.Abs(d)
	if d >= w {
		d = math.Mod(d, w)
	}
	return min(d, w-d)
}

// Wrap returns the canonical representative of p with every coordinate in
// [0, Widths[i]).
func (t Torus) Wrap(p Point) Point {
	checkDim(len(t.widths), p)
	q := make(Point, len(p))
	for i, c := range p {
		c = math.Mod(c, t.widths[i])
		if c < 0 {
			c += t.widths[i]
		}
		q[i] = c
	}
	return q
}

// Area returns the total content (product of widths) of the torus; the
// reference homogeneity H of the paper is defined in terms of this area.
func (t Torus) Area() float64 {
	a := 1.0
	for _, w := range t.widths {
		a *= w
	}
	return a
}

// Hamming treats points as vectors of symbols (compared exactly) and
// returns the number of differing coordinates. With 0/1 coordinates this is
// the set-difference metric over item sets of a fixed universe, matching
// the paper's remark that positions can be "a list of items" from "the
// power-set of items" (Sec. III-A): profile spaces for recommendation.
type Hamming struct {
	dim int
}

var _ Space = Hamming{}

// NewHamming returns the Hamming space over vectors of the given length.
func NewHamming(dim int) Hamming {
	if dim <= 0 {
		panic("space: NewHamming requires dim > 0")
	}
	return Hamming{dim: dim}
}

// Dim implements Space.
func (h Hamming) Dim() int { return h.dim }

// Distance implements Space.
func (h Hamming) Distance(a, b Point) float64 {
	checkDim(h.dim, a)
	checkDim(h.dim, b)
	n := 0.0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
