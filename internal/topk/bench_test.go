package topk

import (
	"sort"
	"testing"

	"polystyrene/internal/xrand"
)

func benchInput(n int) ([]float64, []int) {
	rng := xrand.New(3)
	keys := make([]float64, n)
	payload := make([]int, n)
	for i := range keys {
		keys[i] = rng.Float64()
		payload[i] = i
	}
	return keys, payload
}

// BenchmarkSmallestK mirrors the T-Man merge shape: keep the 20 closest
// of ~120 candidates.
func BenchmarkSmallestK(b *testing.B) {
	keys, payload := benchInput(120)
	ks := make([]float64, len(keys))
	ps := make([]int, len(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ks, keys)
		copy(ps, payload)
		SmallestK(ks, ps, 20)
	}
}

// BenchmarkSortSliceBaseline is the approach SmallestK replaced, kept as
// its comparison point.
func BenchmarkSortSliceBaseline(b *testing.B) {
	keys, payload := benchInput(120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks := append([]float64(nil), keys...)
		ps := append([]int(nil), payload...)
		idx := make([]int, len(ks))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, c int) bool { return ks[idx[a]] < ks[idx[c]] })
		_ = ps
	}
}
