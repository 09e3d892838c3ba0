package topk

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"polystyrene/internal/xrand"
)

// reference computes the expected result with a full sort under the same
// (key, payload) tie-broken order.
func reference(keys []float64, payload []int, k int) ([]float64, []int) {
	type kv struct {
		k float64
		p int
	}
	all := make([]kv, len(keys))
	for i := range keys {
		all[i] = kv{keys[i], payload[i]}
	}
	slices.SortFunc(all, func(a, b kv) int {
		return cmp.Or(cmp.Compare(a.k, b.k), cmp.Compare(a.p, b.p))
	})
	if k > len(all) {
		k = len(all)
	}
	ks := make([]float64, k)
	ps := make([]int, k)
	for i := 0; i < k; i++ {
		ks[i], ps[i] = all[i].k, all[i].p
	}
	return ks, ps
}

func TestSmallestKMatchesFullSort(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(150)
		k := rng.Intn(n + 10)
		keys := make([]float64, n)
		payload := make([]int, n)
		for i := range keys {
			// Coarse values force plenty of key ties.
			keys[i] = float64(rng.Intn(12))
			payload[i] = i
		}
		rng.ShuffleInts(payload)
		wantK, wantP := reference(append([]float64(nil), keys...), append([]int(nil), payload...), k)

		got := SmallestK(keys, payload, k)
		if got != len(wantK) {
			t.Fatalf("trial %d: SmallestK returned %d, want %d", trial, got, len(wantK))
		}
		for i := 0; i < got; i++ {
			if keys[i] != wantK[i] || payload[i] != wantP[i] {
				t.Fatalf("trial %d (n=%d k=%d): slot %d = (%v,%d), want (%v,%d)",
					trial, n, k, i, keys[i], payload[i], wantK[i], wantP[i])
			}
		}
	}
}

// checkSelection runs SmallestK on copies of keys and payload and checks
// that the prefix equals reference's and that the whole result is still a
// permutation of the input pairs.
func checkSelection(t *testing.T, name string, keys []float64, payload []int, k int) {
	t.Helper()
	ks, ps := slices.Clone(keys), slices.Clone(payload)
	got := SmallestK(ks, ps, k)
	wantK, wantP := reference(keys, payload, k)
	if got != len(wantK) {
		t.Fatalf("%s (n=%d k=%d): SmallestK returned %d, want %d", name, len(keys), k, got, len(wantK))
	}
	for i := 0; i < got; i++ {
		if ks[i] != wantK[i] || ps[i] != wantP[i] {
			t.Fatalf("%s (n=%d k=%d): slot %d = (%v,%d), want (%v,%d)",
				name, len(keys), k, i, ks[i], ps[i], wantK[i], wantP[i])
		}
	}
	allK, allP := reference(ks, ps, len(ks))
	inK, inP := reference(keys, payload, len(keys))
	if !slices.Equal(allK, inK) || !slices.Equal(allP, inP) {
		t.Fatalf("%s (n=%d k=%d): result is not a permutation of the input", name, len(keys), k)
	}
}

// TestSmallestKSelectionPaths covers both selection paths — bounded
// insertion up to insertionK, quickselect above it — and the k = len sort,
// over the input orders the gossip layers produce (random, and nearly
// sorted: a ranked view re-ranked against a nearby target) and the ones
// that stress a path (sorted, reversed), with unique, duplicate and
// all-equal keys.
func TestSmallestKSelectionPaths(t *testing.T) {
	rng := xrand.New(11)
	orders := map[string]func(keys []float64){
		"random": func([]float64) {},
		"sorted": func(keys []float64) { slices.Sort(keys) },
		"reversed": func(keys []float64) {
			slices.Sort(keys)
			slices.Reverse(keys)
		},
		"nearly-sorted": func(keys []float64) {
			slices.Sort(keys)
			for s := 0; s < len(keys)/10+1; s++ {
				i := rng.Intn(len(keys))
				j := min(len(keys)-1, i+1+rng.Intn(4))
				keys[i], keys[j] = keys[j], keys[i]
			}
		},
	}
	keyGens := map[string]func(i int) float64{
		"unique":    func(int) float64 { return rng.Float64() },
		"duplicate": func(int) float64 { return float64(rng.Intn(7)) },
		"all-equal": func(int) float64 { return 3 },
	}
	for orderName, order := range orders {
		for keyName, gen := range keyGens {
			for _, n := range []int{1, 5, insertionK, insertionK + 1, 101, 120, 400} {
				keys := make([]float64, n)
				for i := range keys {
					keys[i] = gen(i)
				}
				order(keys)
				// Payloads are a permutation, so with all-equal keys the
				// order is decided by payload alone.
				payload := make([]int, n)
				for i := range payload {
					payload[i] = i
				}
				rng.ShuffleInts(payload)
				for _, k := range []int{1, 5, 20, insertionK, insertionK + 1, 100, n - 1, n, n + 3} {
					checkSelection(t, orderName+"/"+keyName, keys, payload, k)
				}
			}
		}
	}
}

// FuzzSmallestK checks SmallestK against the sort oracle on arbitrary
// inputs: each byte pair is one (key, payload), the key taken coarsely so
// ties are common, and k ranges past the input length.
func FuzzSmallestK(f *testing.F) {
	ramp := func(n int, step int) []byte {
		b := make([]byte, 2*n)
		for i := 0; i < n; i++ {
			b[2*i], b[2*i+1] = byte(128+step*i/2), byte(i)
		}
		return b
	}
	f.Add(ramp(101, 1), uint8(20))
	f.Add(ramp(101, -1), uint8(20))
	f.Add(ramp(60, 1), uint8(insertionK))
	f.Add(ramp(60, -1), uint8(insertionK+1))
	f.Add(make([]byte, 2*80), uint8(insertionK))
	f.Add(make([]byte, 2*80), uint8(insertionK+1))
	f.Add([]byte{9, 1, 3, 2, 7, 0}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		n := len(data) / 2
		keys := make([]float64, n)
		payload := make([]int, n)
		for i := 0; i < n; i++ {
			keys[i] = float64(data[2*i] / 4)
			payload[i] = int(data[2*i+1])
		}
		checkSelection(t, "fuzz", keys, payload, int(k))
	})
}

func TestSmallestKPermutationIndependent(t *testing.T) {
	rng := xrand.New(9)
	n, k := 60, 13
	keys := make([]float64, n)
	payload := make([]int, n)
	for i := range keys {
		keys[i] = float64(rng.Intn(5))
		payload[i] = i
	}
	firstK := append([]float64(nil), keys...)
	firstP := append([]int(nil), payload...)
	SmallestK(firstK, firstP, k)

	for trial := 0; trial < 50; trial++ {
		ks := append([]float64(nil), keys...)
		ps := append([]int(nil), payload...)
		rng.Shuffle(n, func(i, j int) {
			ks[i], ks[j] = ks[j], ks[i]
			ps[i], ps[j] = ps[j], ps[i]
		})
		SmallestK(ks, ps, k)
		for i := 0; i < k; i++ {
			if ks[i] != firstK[i] || ps[i] != firstP[i] {
				t.Fatalf("selection depends on input order at slot %d", i)
			}
		}
	}
}

func TestSmallestKEdgeCases(t *testing.T) {
	if got := SmallestK(nil, []int(nil), 5); got != 0 {
		t.Fatalf("empty input: got %d", got)
	}
	if got := SmallestK([]float64{1, 2}, []int{0, 1}, 0); got != 0 {
		t.Fatalf("k=0: got %d", got)
	}
	if got := SmallestK([]float64{3}, []int{0}, -2); got != 0 {
		t.Fatalf("negative k: got %d", got)
	}
	keys := []float64{2, 1, 3}
	payload := []int{10, 11, 12}
	if got := SmallestK(keys, payload, 99); got != 3 {
		t.Fatalf("k>n: got %d", got)
	}
	if keys[0] != 1 || keys[1] != 2 || keys[2] != 3 {
		t.Fatalf("k>n full sort wrong: %v", keys)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	SmallestK([]float64{1}, []int{0, 1}, 1)
}

func TestSmallestKAllEqualKeysAndPayloads(t *testing.T) {
	// Fully duplicated input must terminate and keep the multiset intact.
	n := 200
	keys := make([]float64, n)
	payload := make([]int, n)
	if got := SmallestK(keys, payload, 50); got != 50 {
		t.Fatalf("got %d", got)
	}
	for i := 0; i < 50; i++ {
		if keys[i] != 0 || payload[i] != 0 {
			t.Fatal("duplicated input corrupted")
		}
	}
}

func TestSmallestKInfAndLargeValues(t *testing.T) {
	keys := []float64{math.Inf(1), 5, math.MaxFloat64, 1, 5}
	payload := []int{0, 1, 2, 3, 4}
	SmallestK(keys, payload, 3)
	if payload[0] != 3 || payload[1] != 1 || payload[2] != 4 {
		t.Fatalf("payload order = %v", payload[:3])
	}
}
