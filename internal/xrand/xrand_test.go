package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: generators diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs out of 100", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero seed produced repeats: %d unique of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("split children produced identical output at step %d", i)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(42)
	for i := 0; i < 17; i++ {
		r.Uint64() // advance mid-stream so the captured state is non-trivial
	}
	st := r.State()
	want := make([]uint64, 100)
	for i := range want {
		want[i] = r.Uint64()
	}
	// Restoring into a generator with unrelated history must resume the
	// exact stream.
	other := New(999)
	other.Uint64()
	other.SetState(st)
	for i, w := range want {
		if got := other.Uint64(); got != w {
			t.Fatalf("restored stream diverged at step %d: %d != %d", i, got, w)
		}
	}
	// And the original keeps producing the same stream after State().
	r.SetState(st)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("re-restored stream diverged at step %d: %d != %d", i, got, w)
		}
	}
}

func TestSetStateRejectsAllZero(t *testing.T) {
	r := New(1)
	r.SetState([4]uint64{})
	if s := r.State(); s[0]|s[1]|s[2]|s[3] == 0 {
		t.Fatal("SetState accepted the all-zero fixed point")
	}
	// A single-word state needs a few steps to mix, so allow some early
	// repeats — the generator must escape the fixed point, not be perfect.
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 90 {
		t.Fatalf("generator stuck after all-zero SetState: %d unique of 100", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 500} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid entry %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(17)
	for _, tc := range []struct{ n, k int }{
		{10, 3}, {10, 10}, {10, 15}, {1000, 1}, {5, 0}, {100, 99},
	} {
		s := r.Sample(tc.n, tc.k)
		wantLen := tc.k
		if wantLen > tc.n {
			wantLen = tc.n
		}
		if wantLen < 0 {
			wantLen = 0
		}
		if len(s) != wantLen {
			t.Fatalf("Sample(%d,%d) length %d, want %d", tc.n, tc.k, len(s), wantLen)
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= tc.n {
				t.Fatalf("Sample(%d,%d) value %d out of range", tc.n, tc.k, v)
			}
			if seen[v] {
				t.Fatalf("Sample(%d,%d) duplicate value %d", tc.n, tc.k, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleUniform(t *testing.T) {
	// Each element of [0,n) should appear in a k-sample with probability k/n.
	r := New(23)
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestBoolProbabilities(t *testing.T) {
	r := New(29)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / trials; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate %v", p)
	}
}

func TestShuffleProperty(t *testing.T) {
	// Property: shuffling preserves the multiset of elements.
	f := func(seed uint64, raw []int8) bool {
		r := New(seed)
		vals := make([]int, len(raw))
		for i, v := range raw {
			vals[i] = int(v)
		}
		before := map[int]int{}
		for _, v := range vals {
			before[v]++
		}
		r.ShuffleInts(vals)
		after := map[int]int{}
		for _, v := range vals {
			after[v]++
		}
		if len(before) != len(after) {
			return false
		}
		for k, c := range before {
			if after[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
