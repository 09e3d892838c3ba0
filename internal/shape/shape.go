// Package shape generates the data-point sets that define target
// topologies — the "decentralized data shapes" of the paper's title. The
// evaluation uses a regular torus grid, but the mechanism is
// shape-agnostic: the set of initial data points *is* the shape
// (Sec. III-A), so anything expressible as points in a metric space can be
// maintained. This package provides the shapes that the scenarios, the
// facade and the examples build: the paper's torus grid and the
// Hamming-space interest profiles of examples/profiles and poly serve
// -profiles.
package shape

import "polystyrene/internal/space"

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
