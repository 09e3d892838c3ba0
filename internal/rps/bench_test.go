package rps

import (
	"testing"

	"polystyrene/internal/sim"
)

// BenchmarkGossipRound measures one full peer-sampling round over a
// 2,000-node system: the Cyclon shuffle is the innermost loop of every
// experiment, so it must run map-free and with pooled buffers.
func BenchmarkGossipRound(b *testing.B) {
	p := New(Config{})
	e := sim.New(1, p)
	e.AddNodes(2000)
	e.RunRounds(3) // let views fill before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRounds(1)
	}
}

// BenchmarkRandomPeers measures the sampling query the layers above
// issue on every step, into a reused buffer as they do.
func BenchmarkRandomPeers(b *testing.B) {
	p := New(Config{})
	e := sim.New(2, p)
	e.AddNodes(500)
	e.RunRounds(3)
	var buf []sim.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.AppendRandomPeers(buf[:0], e, 0, 10)
		if len(buf) == 0 {
			b.Fatal("no peers")
		}
	}
}
