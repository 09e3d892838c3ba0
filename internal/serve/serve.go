// Package serve turns a running Polystyrene engine into a live overlay
// service: while the round loop advances on one goroutine, any number of
// concurrent readers answer point lookups, neighbour queries and node
// inspections against an epoch-published read snapshot.
//
// The paper's whole point is a data shape that keeps answering queries
// *while* dying and recovering; this package is the serving half of that
// claim. The design is copy-on-publish:
//
//   - Once per round, at the engine's post-barrier publish point
//     (sim.Engine.SetPublishHook — after every layer has stepped and every
//     observer has run, so the engine is quiescent and all deferred
//     per-round work is flushed), the driver copies the read state into a
//     fresh immutable Epoch: live positions, a compact K-nearest router
//     view, the live-only holders index and per-node guest/ghost counts.
//   - The Publisher swaps the new epoch in with one atomic pointer store.
//     Readers load the pointer, query the immutable arrays, and never
//     acquire a lock the round loop can hold; the loop never waits for a
//     reader. Superseded epochs are garbage-collected once the last
//     reader drops them.
//
// Staleness contract: a reader sees the state as of the end of some
// completed round — at most one round behind the loop, and internally
// consistent (positions, topology and holders all from the same round).
// Every query answer carries the epoch's sequence number and round so
// staleness is observable end to end.
//
// The HTTP frontend (Frontend) exposes the epoch queries as a JSON API;
// loadgen (a subpackage) drives it with a deterministic closed-loop load
// generator recording HDR-style latency histograms. poly serve wires
// both around a phase-driven engine for a churn-and-catastrophe serving
// soak.
package serve

import (
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// Source is the state a Capture copies an Epoch from: the read surface of
// a running system. scenario.Stack's adapter is the one implementation;
// the polystyrene.System facade and scenario.Scenario both hand it out
// through their ServeSource methods. All methods are called from the
// round-driving goroutine while the engine is quiescent, so
// implementations need no locking; buffers returned by AppendLive-style
// methods are copied before Capture returns.
type Source interface {
	// Space is the metric data space (shared, immutable).
	Space() space.Space
	// Round is the engine round counter at capture time. Inside the
	// post-barrier publish hook this is the index of the round that just
	// completed; for an eager pre-run capture it is 0.
	Round() int
	// NumNodes bounds the dense NodeID range ever allocated.
	NumNodes() int
	// AppendLive appends all live node IDs in ascending order.
	AppendLive(dst []sim.NodeID) []sim.NodeID
	// Position returns a live node's current virtual position. The point
	// is copied during capture; it only needs to stay valid for the call.
	Position(id sim.NodeID) space.Point
	// EachNeighbor visits up to k closest overlay neighbours of a live
	// node in increasing distance order (the core.Topology visitor form).
	EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool)
	// NumGuests and NumGhosts count a node's primary and replica points.
	NumGuests(id sim.NodeID) int
	NumGhosts(id sim.NodeID) int
	// NumPoints is the size of the interned data-point universe, and
	// EachGuestID visits the interned IDs of a node's guest points.
	// Sources without a Polystyrene layer (plain-overlay baselines)
	// return 0 and visit nothing: the epoch then serves positions and
	// topology only, with an empty holders index.
	NumPoints() int
	EachGuestID(id sim.NodeID, fn func(pid space.PointID))
}
