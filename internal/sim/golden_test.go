package sim

import (
	"testing"
)

// gossipish is a toy protocol that exercises every engine facility that
// feeds the deterministic trajectory: per-round step order, RandomLive
// draws, kills, and meter charges.
type gossipish struct {
	name  string
	trace *fnv64Trace
}

func (g *gossipish) Name() string             { return g.name }
func (g *gossipish) InitNode(*Engine, NodeID) {}

func (g *gossipish) Step(e *Engine, id NodeID) {
	g.trace.add(uint64(id))
	peer := e.RandomLive()
	g.trace.add(uint64(peer) + 1)
	e.Charge(int(id%5) + 1)
	// Light deterministic churn: node 13 assassinates its random peer
	// every third round, exercising mid-round kills.
	if id == 13 && e.Round()%3 == 0 && peer != id {
		e.Kill(peer)
	}
}

// fnv64Trace folds a sequence of values into one FNV-1a fingerprint.
type fnv64Trace struct{ h uint64 }

func newTrace() *fnv64Trace { return &fnv64Trace{h: 14695981039346656037} }

func (t *fnv64Trace) add(v uint64) {
	for i := 0; i < 8; i++ {
		t.h ^= v & 0xff
		t.h *= 1099511628211
		v >>= 8
	}
}

// goldenRun executes a fixed scripted simulation and fingerprints its
// full observable trajectory: step order across layers and rounds, kill
// effects, live counts, and meter ledgers.
func goldenRun() uint64 {
	trace := newTrace()
	bottom := &gossipish{name: "bottom", trace: trace}
	top := &gossipish{name: "top", trace: trace}
	e := New(0xdecafbad, bottom, top)
	e.AddNodes(64)
	e.Observe(func(e *Engine, round int) { trace.add(uint64(e.NumLive())) })
	e.RunRounds(2)
	for id := NodeID(20); id < 40; id++ {
		e.Kill(id)
	}
	e.RunRounds(3)
	e.AddNodes(8)
	e.RunRounds(5)

	for _, id := range e.LiveIDs() {
		trace.add(uint64(id))
	}
	for _, layer := range []string{"bottom", "top", "external"} {
		trace.add(uint64(e.Meter().TotalCost(layer)))
		for r := 0; r < 10; r++ {
			trace.add(uint64(e.Meter().RoundCost(layer, r)))
		}
	}
	return trace.h
}

// goldenTrajectory is the fingerprint of goldenRun under the current
// engine. It pins the exact seeded behaviour — step-order policy (one
// shuffle per round shared by all layers), the O(1) RandomLive draw
// discipline, swap-remove kill bookkeeping, and meter attribution — so
// any engine change that silently alters simulation results fails here
// rather than surfacing as mysteriously shifted experiment curves. If a
// deliberate engine-semantics change lands, update the constant and note
// the trajectory break in CHANGES.md.
const goldenTrajectory uint64 = 0xa0fb816899d749a1

func TestGoldenTrajectory(t *testing.T) {
	a, b := goldenRun(), goldenRun()
	if a != b {
		t.Fatalf("same-process reruns diverged: %#x vs %#x", a, b)
	}
	if a != goldenTrajectory {
		t.Fatalf("engine trajectory changed: got %#x, golden %#x\n"+
			"(intentional engine-semantics changes must update goldenTrajectory)", a, goldenTrajectory)
	}
}

func TestGoldenTrajectorySeedSensitivity(t *testing.T) {
	// The fingerprint must actually depend on the seed — otherwise the
	// golden test would pass vacuously.
	trace := newTrace()
	e := New(0xfeedface, &gossipish{name: "bottom", trace: trace})
	e.AddNodes(64)
	e.RunRounds(10)
	if trace.h == goldenTrajectory {
		t.Fatal("different seed reproduced the golden fingerprint")
	}
}
