package polystyrene_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polystyrene"
	"polystyrene/internal/serve"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// TestConcurrentReadersSeeConsistentEpochs runs the full lifecycle —
// convergence, catastrophic half-crash, recovery, reinjection — on the
// round-driving goroutine while 8 readers hammer the published epochs,
// checking every answer for internal consistency: every node an epoch
// lists is live *in that epoch*, its neighbours and its guest points'
// holders all resolve within the same epoch, and sequence numbers only
// move forward. Run under -race this is the proof that the copy-on-
// publish handoff is sound.
func TestConcurrentReadersSeeConsistentEpochs(t *testing.T) {
	sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
		Seed:              21,
		Space:             polystyrene.Torus(16, 8),
		Shape:             polystyrene.TorusShape(16, 8, 1),
		ReplicationFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := sys.ServePublisher()

	const readers = 8
	var (
		wg      sync.WaitGroup
		done    atomic.Bool
		checked atomic.Uint64
	)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lastSeq uint64
			var nbuf []sim.NodeID
			var gbuf []space.PointID
			for !done.Load() {
				ep := pub.Current()
				if ep == nil {
					continue
				}
				if ep.Seq < lastSeq {
					t.Errorf("epoch sequence went backwards: %d after %d", ep.Seq, lastSeq)
					return
				}
				lastSeq = ep.Seq
				n := ep.NumLive()
				if n == 0 {
					continue
				}
				id := ep.NodeAt((w * 7) % n)
				if !ep.Contains(id) {
					t.Errorf("epoch %d lists node %d but Contains is false", ep.Seq, id)
					return
				}
				if _, ok := ep.Position(id); !ok {
					t.Errorf("epoch %d: no position for listed node %d", ep.Seq, id)
					return
				}
				nbuf, _ = ep.AppendNeighbors(nbuf[:0], id, serve.DefaultFanout)
				for _, nb := range nbuf {
					if !ep.Contains(nb) {
						t.Errorf("epoch %d: node %d lists dead neighbour %d", ep.Seq, id, nb)
						return
					}
				}
				// Guests and holders were captured from the same round:
				// each guest point's holder set must name its host.
				gbuf, _ = ep.AppendGuestIDs(gbuf[:0], id)
				for _, pid := range gbuf {
					holders := ep.AppendHolders(nil, pid)
					found := false
					for _, hid := range holders {
						if hid == id {
							found = true
						}
					}
					if !found {
						t.Errorf("epoch %d: node %d hosts point %d but holders(%d) = %v",
							ep.Seq, id, pid, pid, holders)
						return
					}
				}
				checked.Add(1)
			}
		}(w)
	}

	// Engine mutation stays on this goroutine; readers touch epochs only.
	sys.Run(8)
	sys.CrashRegion(func(p []float64) bool { return p[0] >= 8 })
	sys.Run(12)
	if _, err := sys.AddNodes(polystyrene.TorusShape(4, 4, 1)); err != nil {
		t.Fatal(err)
	}
	sys.Run(8)
	done.Store(true)
	wg.Wait()

	if checked.Load() == 0 {
		t.Fatal("readers performed no consistency checks")
	}
	ep := pub.Current()
	if ep == nil || ep.Round != sys.Round()-1 {
		t.Fatalf("final epoch out of step: %+v vs round %d", ep, sys.Round())
	}
}

// TestReadersDontBlockRoundLoop pins the lock-freedom claim the design
// rests on: round wall-clock with 8 concurrent epoch readers stays
// within a generous factor of the reader-free baseline. Readers sleep
// between queries so the check measures blocking, not CPU contention
// (CI runs on one core); an epoch reader holding any lock the round
// loop needs would blow the bound immediately.
func TestReadersDontBlockRoundLoop(t *testing.T) {
	build := func() *polystyrene.System {
		sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
			Seed:              4,
			Space:             polystyrene.Torus(24, 12),
			Shape:             polystyrene.TorusShape(24, 12, 1),
			ReplicationFactor: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	const rounds = 30

	base := build()
	base.ServePublisher() // publish cost included in both measurements
	t0 := time.Now()
	base.Run(rounds)
	baseline := time.Since(t0)

	sys := build()
	pub := sys.ServePublisher()
	var wg sync.WaitGroup
	var done atomic.Bool
	q := []float64{11.5, 5.5}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if ep := pub.Current(); ep != nil {
					ep.Lookup(q)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	t0 = time.Now()
	sys.Run(rounds)
	loaded := time.Since(t0)
	done.Store(true)
	wg.Wait()

	// Generous bound: single-CPU runners timeshare the readers, so some
	// slowdown is physics; a reader-held lock on the round path would
	// cost far more than 5x (each of 8 readers parking the loop).
	if baseline > 0 && loaded > 5*baseline+50*time.Millisecond {
		t.Fatalf("rounds with readers took %v vs baseline %v (> 5x): readers are blocking the loop",
			loaded, baseline)
	}
}
