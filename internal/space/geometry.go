package space

import (
	"polystyrene/internal/topk"
	"polystyrene/internal/xrand"
)

// Medoid returns the medoid of points under s: the element x0 that
// minimises the sum of squared distances to all other elements
// (paper Sec. III-C). Ties break towards the lowest index so the result is
// deterministic for a given slice order. It returns -1 for an empty slice.
//
// The medoid — not the centroid — is used for node positions because the
// torus is a modular space where scalar division, and hence the mean, is
// ill defined (paper footnote 2).
func Medoid(s Space, points []Point) int {
	best, bestCost := -1, 0.0
	for i, cand := range points {
		cost := 0.0
		for j, other := range points {
			if i == j {
				continue
			}
			d := s.Distance(cand, other)
			// float64(x*y) rounds the product alone, so no GOARCH fuses it into the sum (scripts/nofma.sh).
			cost += float64(d * d)
			if best >= 0 && cost >= bestCost {
				break // cannot beat the incumbent; skip the rest
			}
		}
		if best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// MedoidPoint is like Medoid but returns the point itself (nil when points
// is empty).
func MedoidPoint(s Space, points []Point) Point {
	i := Medoid(s, points)
	if i < 0 {
		return nil
	}
	return points[i]
}

// Diameter returns the indices (i, j) of a farthest pair in points under s,
// by exhaustive O(n^2) search, together with their distance. For n < 2 it
// returns (-1, -1, 0).
func Diameter(s Space, points []Point) (i, j int, dist float64) {
	i, j = -1, -1
	for a := 0; a < len(points); a++ {
		for b := a + 1; b < len(points); b++ {
			if d := s.Distance(points[a], points[b]); d > dist || i < 0 {
				i, j, dist = a, b, d
			}
		}
	}
	return i, j, dist
}

// DiameterSampled approximates a diameter by examining maxPairs random
// pairs. The paper (Sec. III-F) suggests sampling when a merged guest set
// grows large ("say over 30" points). When the number of pairs is at most
// maxPairs the search is exhaustive and exact. rng may not be nil.
func DiameterSampled(s Space, points []Point, maxPairs int, rng *xrand.Rand) (i, j int, dist float64) {
	n := len(points)
	if n < 2 {
		return -1, -1, 0
	}
	totalPairs := n * (n - 1) / 2
	if totalPairs <= maxPairs {
		return Diameter(s, points)
	}
	i, j = -1, -1
	for k := 0; k < maxPairs; k++ {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		if d := s.Distance(points[a], points[b]); d > dist || i < 0 {
			i, j, dist = a, b, d
		}
	}
	return i, j, dist
}

// Scatter returns the within-set sum of squared pairwise distances —
// the objective clustering function the paper uses to compare partitions
// (Sec. III-F): sum over unordered pairs {i,j} of d(i,j)^2.
func Scatter(s Space, points []Point) float64 {
	sum := 0.0
	for a := 0; a < len(points); a++ {
		for b := a + 1; b < len(points); b++ {
			d := s.Distance(points[a], points[b])
			sum += float64(d * d)
		}
	}
	return sum
}

// Nearest returns the index in points of the element closest to x, and the
// distance. It returns (-1, +Inf-free 0) for an empty slice.
func Nearest(s Space, x Point, points []Point) (int, float64) {
	best, bestD := -1, 0.0
	for i, p := range points {
		d := s.Distance(x, p)
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// KNearest returns the indices of the k nearest elements of points to x,
// ordered by increasing distance (ties toward the lower index). When
// k >= len(points) all indices are returned. Selection is delegated to
// topk.SmallestK, the same partial-selection pass the gossip layers use,
// so there is a single tie-break semantics across the system.
func KNearest(s Space, x Point, points []Point, k int) []int {
	if k <= 0 {
		return nil
	}
	dist := make([]float64, len(points))
	idx := make([]int, len(points))
	for i, p := range points {
		dist[i] = s.Distance(x, p)
		idx[i] = i
	}
	k = topk.SmallestK(dist, idx, k)
	return idx[:k]
}
