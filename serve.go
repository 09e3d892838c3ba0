package polystyrene

import "polystyrene/internal/serve"

// This file is the facade's serving surface: the stack's serve.Source
// adapter and its Publisher wiring to the engine's post-barrier publish
// point, so an HTTP frontend (internal/serve,
// poly serve) can answer queries concurrently with the round loop
// against immutable epoch snapshots. The returned serve.* types are
// internal to this module by design — the serving stack is consumed by
// poly serve and the benchmarks, not re-exported.

// ServeSource returns the system's serve.Source adapter, for callers
// wiring their own Publisher or capturing ad-hoc epochs.
func (s *System) ServeSource() serve.Source { return s.stack.ServeSource() }

// ServeSnapshot captures one ad-hoc immutable epoch of the system's
// current state, with a router view of serve.DefaultFanout neighbours
// per node. The epoch's Seq is 0, marking it as unpublished; it is safe
// to query from any goroutine, but the capture itself must not run
// concurrently with Run.
func (s *System) ServeSnapshot() *serve.Epoch {
	return serve.Capture(s.stack.ServeSource(), serve.DefaultFanout, 0)
}

// ServePublisher creates a Publisher whose epochs carry a router view of
// serve.DefaultFanout neighbours per node, publishes an initial epoch of
// the current state so the service is answerable before the first round
// completes, and hooks the publisher to the engine's post-barrier
// publish point: every subsequent round ends by capturing and atomically
// swapping in a fresh epoch. Readers of the returned publisher never
// take a lock the round loop can hold, and the loop never waits for a
// reader; see internal/serve for the staleness contract.
//
// The engine has a single publish hook, so a second ServePublisher call
// replaces the first wiring (the orphaned publisher just stops
// advancing). StopServing unhooks; Publisher.Close drains.
func (s *System) ServePublisher() *serve.Publisher { return s.stack.ServePublisher() }

// StopServing detaches the publish hook installed by ServePublisher.
// The last published epoch stays queryable until the publisher is
// closed; rounds simply stop producing new ones.
func (s *System) StopServing() { s.stack.StopServing() }
