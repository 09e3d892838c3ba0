package core

// Micro-benchmarks for the Polystyrene point-set hot paths. The headline
// one, BenchmarkMigrateRound, executes one full layer round (recovery,
// backup, migration, projection for every live node) at the post-failure
// steady state — the regime the ROADMAP's "Beyond 51,200 nodes" item
// targets, where survivors host several guests each.

import (
	"testing"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// benchStack builds a converged post-catastrophe stack: half the torus
// crashed, recovery and deduplication settled, each survivor hosting ~2
// guest points.
func benchStack(b *testing.B, seed uint64) *stack {
	b.Helper()
	st := newStack(b, stackOpts{seed: seed, w: 32, h: 16, cfg: Config{K: 4}})
	st.engine.RunRounds(10)
	for i, p := range st.points {
		if space.RightHalf(p, float64(st.w)) {
			st.engine.Kill(sim.NodeID(i))
		}
	}
	st.engine.RunRounds(10)
	return st
}

// BenchmarkMigrateRound measures one full Polystyrene round over every
// live node in the interned-ID representation.
func BenchmarkMigrateRound(b *testing.B) {
	b.Run("interned", func(b *testing.B) {
		st := benchStack(b, 42)
		ids := st.engine.LiveIDs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				st.poly.Step(st.engine, id)
			}
		}
	})
}
