// Package shape generates the data-point sets that define target
// topologies — the "decentralized data shapes" of the paper's title. The
// evaluation uses a regular torus grid, but the mechanism is
// shape-agnostic: the set of initial data points *is* the shape
// (Sec. III-A), so anything expressible as points in a metric space can be
// maintained. This package provides generators for the common cases
// (grids, rings, clusters, crosses, spheres, uniform clouds) used by the
// examples and the generality tests.
package shape

import (
	"math"

	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// Grid is the paper's w x h torus grid with the given step (re-exported
// here so shape consumers need a single import).
func Grid(w, h int, step float64) []space.Point {
	return space.TorusGrid(w, h, step)
}

// Intern registers a generated shape into the interner and returns the
// points' dense IDs in lockstep. Shape generators produce the fixed data
// universe of a system (the shape *is* the point set, Sec. III-A), so the
// whole universe is interned once at setup — the intern-before-use
// invariant the ID-keyed protocol layers rely on (see space.Interner).
// Points must already be canonical for the target space.
func Intern(in *space.Interner, pts []space.Point) []space.PointID {
	return in.InternAll(pts)
}

// Ring returns n points evenly spaced on a 1D ring.
func Ring(n int, circumference float64) []space.Point {
	return space.RingPoints(n, circumference)
}

// Clusters returns Gaussian blobs: for each centre, perCluster points
// drawn from an isotropic normal with the given standard deviation. This
// is the semantic-community shape of recommendation overlays.
func Clusters(centers []space.Point, perCluster int, stddev float64, rng *xrand.Rand) []space.Point {
	if perCluster <= 0 || len(centers) == 0 {
		return nil
	}
	out := make([]space.Point, 0, len(centers)*perCluster)
	for _, c := range centers {
		for i := 0; i < perCluster; i++ {
			p := make(space.Point, len(c))
			for d := range c {
				p[d] = c[d] + stddev*rng.NormFloat64()
			}
			out = append(out, p)
		}
	}
	return out
}

// Cross returns a plus-sign shape centred in a w x h box: points along the
// horizontal and vertical centre lines with the given step. Non-convex
// shapes like this exercise the medoid projection (a centroid would fall
// off the shape at the junction).
func Cross(w, h, step float64) []space.Point {
	if w <= 0 || h <= 0 || step <= 0 {
		return nil
	}
	var out []space.Point
	cy := h / 2
	for x := 0.0; x < w; x += step {
		out = append(out, space.Point{x, cy})
	}
	cx := w / 2
	for y := 0.0; y < h; y += step {
		if y == cy {
			continue // junction already present
		}
		out = append(out, space.Point{cx, y})
	}
	return out
}

// Sphere returns n points approximately evenly distributed on the surface
// of a 3D sphere (Fibonacci lattice) with the given radius, centred at the
// origin — a shape for 3D Euclidean deployments.
func Sphere(n int, radius float64) []space.Point {
	if n <= 0 || radius <= 0 {
		return nil
	}
	out := make([]space.Point, n)
	golden := math.Pi * (3 - math.Sqrt(5))
	for i := 0; i < n; i++ {
		y := 1 - 2*float64(i)/float64(maxInt(n-1, 1))
		r := math.Sqrt(math.Max(0, 1-y*y))
		theta := golden * float64(i)
		out[i] = space.Point{
			radius * r * math.Cos(theta),
			radius * y,
			radius * r * math.Sin(theta),
		}
	}
	return out
}

// UniformTorus returns n points drawn uniformly at random on the torus.
func UniformTorus(n int, t space.Torus, rng *xrand.Rand) []space.Point {
	if n <= 0 {
		return nil
	}
	out := make([]space.Point, n)
	for i := range out {
		p := make(space.Point, t.Dim())
		for d := range p {
			p[d] = rng.Float64() * t.Width(d)
		}
		out[i] = p
	}
	return out
}

// Profile builds the interest profile of user u of community c (for a
// space of `topics` 0/1 topics split among `communities`): the
// community's shared topic core — topics/communities consecutive topics
// — plus one per-user variation topic outside the core, so community
// members are mutually close under Hamming distance but not identical.
// This is the semantic-overlay shape of decentralized recommendation
// (Gossple, WhatsUp; the paper's Sec. II-B), and the profile formula of
// examples/profiles and poly serve -profiles.
func Profile(c, u, topics, communities int) space.Point {
	core := topics / communities
	p := make(space.Point, topics)
	for t := 0; t < core; t++ {
		p[c*core+t] = 1
	}
	p[(c*core+core+u%(topics-core))%topics] = 1
	return p
}

// ProfileCore returns community c's canonical core profile (the shared
// topics only) — the query point for "how reachable is this interest
// region in the overlay".
func ProfileCore(c, topics, communities int) space.Point {
	core := topics / communities
	p := make(space.Point, topics)
	for t := 0; t < core; t++ {
		p[c*core+t] = 1
	}
	return p
}

// Profiles returns the full profile shape: usersPerCommunity Profile
// vectors for each of the communities, community-by-community (node i
// is user i%usersPerCommunity of community i/usersPerCommunity). It
// lives on Hamming(topics). Degenerate parameters (no users, no
// communities, fewer topics than communities) return nil.
func Profiles(usersPerCommunity, topics, communities int) []space.Point {
	if usersPerCommunity <= 0 || communities <= 0 || topics <= communities {
		return nil
	}
	out := make([]space.Point, 0, communities*usersPerCommunity)
	for c := 0; c < communities; c++ {
		for u := 0; u < usersPerCommunity; u++ {
			out = append(out, Profile(c, u, topics, communities))
		}
	}
	return out
}

// BoundingTorus returns a torus just enclosing the points' coordinate
// ranges (with the given margin per dimension), convenient for wrapping an
// arbitrary 2D shape into a modular space.
func BoundingTorus(points []space.Point, margin float64) space.Torus {
	if len(points) == 0 {
		return space.NewTorus(1, 1)
	}
	dim := len(points[0])
	maxs := make([]float64, dim)
	for _, p := range points {
		for d, c := range p {
			if c > maxs[d] {
				maxs[d] = c
			}
		}
	}
	widths := make([]float64, dim)
	for d := range widths {
		widths[d] = maxs[d] + margin
		if widths[d] <= 0 {
			widths[d] = margin
		}
	}
	return space.NewTorus(widths...)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
