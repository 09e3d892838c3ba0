package polystyrene_test

import (
	"fmt"
	"math"
	"slices"

	"polystyrene"
	"polystyrene/internal/shape"
)

// ExampleNewSystem shows the paper's headline behaviour: a torus overlay
// that survives losing its entire right half.
func ExampleNewSystem() {
	sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
		Seed:              1,
		Space:             polystyrene.Torus(20, 10),
		Shape:             polystyrene.TorusShape(20, 10, 1),
		ReplicationFactor: 4,
	})
	if err != nil {
		panic(err)
	}
	sys.Run(15) // converge
	sys.CrashRegion(func(p []float64) bool { return p[0] >= 10 })
	sys.Run(12) // reshape
	fmt.Println("shape recovered:", sys.Homogeneity() < sys.ReferenceHomogeneity())
	// Output: shape recovered: true
}

// ExampleSystem_AppendNeighbors shows the allocation-free primary form of
// the neighbour query: results append into a caller-owned buffer that a
// hot loop reuses across calls.
func ExampleSystem_AppendNeighbors() {
	sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
		Seed:  3,
		Space: polystyrene.Torus(20, 10),
		Shape: polystyrene.TorusShape(20, 10, 1),
	})
	if err != nil {
		panic(err)
	}
	sys.Run(15) // converge

	buf := make([]int, 0, 8) // pooled: reused for every query
	for _, id := range []int{0, 1, 2} {
		buf = sys.AppendNeighbors(buf[:0], id, 4)
		fmt.Printf("node %d has %d neighbours, self-links: %v\n",
			id, len(buf), slices.Contains(buf, id))
	}
	// Output:
	// node 0 has 4 neighbours, self-links: false
	// node 1 has 4 neighbours, self-links: false
	// node 2 has 4 neighbours, self-links: false
}

// ExampleSystem_EachNeighbor shows the zero-copy visitor form: neighbours
// stream to the callback in increasing distance order, and returning
// false stops the iteration early — no slice ever materialises.
func ExampleSystem_EachNeighbor() {
	sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
		Seed:  3,
		Space: polystyrene.Torus(20, 10),
		Shape: polystyrene.TorusShape(20, 10, 1),
	})
	if err != nil {
		panic(err)
	}
	sys.Run(15)

	pos := sys.NodePosition(0)
	dist := func(p []float64) float64 {
		// Torus distance along each axis, for the 20x10 space above.
		dx := math.Min(math.Abs(p[0]-pos[0]), 20-math.Abs(p[0]-pos[0]))
		dy := math.Min(math.Abs(p[1]-pos[1]), 10-math.Abs(p[1]-pos[1]))
		return math.Hypot(dx, dy)
	}
	visited, last, sorted := 0, 0.0, true
	sys.EachNeighbor(0, 8, func(nb int) bool {
		d := dist(sys.NodePosition(nb))
		sorted = sorted && d >= last
		last = d
		visited++
		return visited < 3 // stop early after three neighbours
	})
	fmt.Println("visited:", visited)
	fmt.Println("increasing distance:", sorted)
	// Output:
	// visited: 3
	// increasing distance: true
}

// ExampleSystem_Lookup shows the routing primitive: queries resolve to the
// node closest to a point, even for points whose original hosts crashed.
func ExampleSystem_Lookup() {
	sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
		Seed:              2,
		Space:             polystyrene.Ring(100),
		Shape:             polystyrene.RingShape(50, 100),
		ReplicationFactor: 4,
	})
	if err != nil {
		panic(err)
	}
	sys.Run(15)
	owner := sys.Lookup([]float64{42})
	fmt.Println("key 42 has an owner:", owner >= 0)
	// Output: key 42 has an owner: true
}

// ExampleSystem_ServePublisher serves the profiles workload of
// examples/profiles while rounds run: the publisher snapshots an
// immutable epoch after every round, and queries answer from the epoch —
// never touching (or blocking) the engine. poly serve wraps exactly
// this wiring in an HTTP frontend.
func ExampleSystem_ServePublisher() {
	pts := shape.Profiles(16, 24, 4) // 4 interest communities, 16 users each
	profiles := make([][]float64, len(pts))
	for i, p := range pts {
		profiles[i] = p
	}
	sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
		Seed:              11,
		Space:             polystyrene.Hamming(24),
		Shape:             profiles,
		ReplicationFactor: 6,
	})
	if err != nil {
		panic(err)
	}
	pub := sys.ServePublisher()
	sys.Run(20) // converge; each round publishes a fresh epoch

	ep := pub.Current()
	fmt.Println("epoch:", ep.Seq, "round:", ep.Round, "live:", ep.NumLive())
	// Route to the node closest to community 1's interest core. A member
	// profile is its community core plus one personal topic, so distance
	// 1 means the lookup landed on a community member.
	id, dist, _, ok := ep.Lookup(shape.ProfileCore(1, 24, 4))
	fmt.Println("found:", ok, "node:", id, "distance:", dist)
	pub.Close()
	// Output:
	// epoch: 21 round: 19 live: 64
	// found: true node: 16 distance: 1
}
