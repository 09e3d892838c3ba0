package topk

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"polystyrene/internal/xrand"
)

// randomInput returns n random keys with int32 payloads 0..n-1: T-Man
// selects node ids of that type, so the benchmarks time the instantiation
// production runs.
func randomInput(rng *xrand.Rand, n int) ([]float64, []int32) {
	keys := make([]float64, n)
	payload := make([]int32, n)
	for i := range keys {
		keys[i] = rng.Float64()
		payload[i] = int32(i)
	}
	return keys, payload
}

// nearlySorted sorts keys and then swaps about one in ten with a close
// successor: the order of a view ranked against its owner when it is
// re-ranked against a nearby partner (T-Man's buildBuffer).
func nearlySorted(rng *xrand.Rand, keys []float64) {
	slices.Sort(keys)
	for s := 0; s < len(keys)/10; s++ {
		i := rng.Intn(len(keys) - 4)
		j := i + 1 + rng.Intn(3)
		keys[i], keys[j] = keys[j], keys[i]
	}
}

// BenchmarkSmallestK covers the selection shapes of the gossip layers:
// buildBuffer's 20 of owner + a full view (101), over nearly sorted and
// random input; a ψ-window of 5 of a full view; a merge cut to the view cap
// (100 of 120); and the original 20 of ~120 random candidates. Each
// iteration selects from the next of 64 distinct inputs, so the branch
// predictor cannot learn one input's comparison outcomes.
func BenchmarkSmallestK(b *testing.B) {
	const nInputs = 64
	cases := []struct {
		n, k   int
		nearly bool
	}{
		{101, 20, true},
		{101, 20, false},
		{100, 5, false},
		{120, 100, false},
		{120, 20, false},
	}
	for _, c := range cases {
		order := "random"
		if c.nearly {
			order = "nearly-sorted"
		}
		b.Run(fmt.Sprintf("n%d_k%d_%s", c.n, c.k, order), func(b *testing.B) {
			rng := xrand.New(3)
			keys := make([][]float64, nInputs)
			payload := make([][]int32, nInputs)
			for j := range keys {
				keys[j], payload[j] = randomInput(rng, c.n)
				if c.nearly {
					nearlySorted(rng, keys[j])
				}
			}
			ks := make([]float64, c.n)
			ps := make([]int32, c.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(ks, keys[i%nInputs])
				copy(ps, payload[i%nInputs])
				SmallestK(ks, ps, c.k)
			}
		})
	}
}

// BenchmarkSortSliceBaseline is the approach SmallestK replaced, kept as
// its comparison point.
func BenchmarkSortSliceBaseline(b *testing.B) {
	keys, payload := randomInput(xrand.New(3), 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks := append([]float64(nil), keys...)
		ps := append([]int32(nil), payload...)
		idx := make([]int, len(ks))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, c int) bool { return ks[idx[a]] < ks[idx[c]] })
		_ = ps
	}
}
