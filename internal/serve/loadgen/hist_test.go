package loadgen

import (
	"math"
	"testing"
)

func TestHistIndexMonotoneAndBounded(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 65, 100, 1000, 1 << 20, 1<<20 + 7, 1 << 40, math.MaxUint64} {
		idx := histIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of [0,%d)", v, idx, histBuckets)
		}
		if idx < prev {
			t.Fatalf("histIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestHistRelativeError(t *testing.T) {
	// Every recorded value must land in a bucket whose midpoint is
	// within the layout's relative error (1/histSub of the bucket low,
	// so ~±1.6% around the midpoint; allow the full 1/histSub).
	for v := uint64(1); v < 1<<30; v = v*3 + 1 {
		mid := bucketMid(histIndex(v))
		relerr := math.Abs(float64(mid)-float64(v)) / float64(v)
		if relerr > 1.0/histSub {
			t.Fatalf("value %d -> midpoint %d, relative error %.3f > %.3f",
				v, mid, relerr, 1.0/histSub)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	// 1..1000 microseconds, in nanoseconds.
	for i := uint64(1); i <= 1000; i++ {
		h.Record(i * 1000)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1000000 {
		t.Fatalf("Max = %d", h.Max())
	}
	checks := map[float64]uint64{0.5: 500000, 0.9: 900000, 0.99: 990000, 0.999: 999000}
	for q, want := range checks {
		got := h.Quantile(q)
		if relerr := math.Abs(float64(got)-float64(want)) / float64(want); relerr > 0.05 {
			t.Fatalf("Quantile(%v) = %d, want ~%d (relerr %.3f)", q, got, want, relerr)
		}
	}
	if h.Quantile(0) != bucketMid(histIndex(1000)) {
		t.Fatalf("Quantile(0) = %d, want min bucket", h.Quantile(0))
	}
	if got, wantMax := h.Quantile(1), bucketMid(histIndex(1000000)); got != wantMax {
		t.Fatalf("Quantile(1) = %d, want max bucket %d", got, wantMax)
	}
}

func TestHistAddMerges(t *testing.T) {
	var a, b, whole Hist
	for i := uint64(0); i < 500; i++ {
		a.Record(i * 7)
		whole.Record(i * 7)
	}
	for i := uint64(500); i < 1000; i++ {
		b.Record(i * 7)
		whole.Record(i * 7)
	}
	a.Add(&b)
	if a.Count() != whole.Count() || a.Max() != whole.Max() {
		t.Fatalf("merge mismatch: count %d/%d max %d/%d",
			a.Count(), whole.Count(), a.Max(), whole.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("merged Quantile(%v) = %d, direct = %d", q, a.Quantile(q), whole.Quantile(q))
		}
	}
	var empty Hist
	a.Add(&empty) // no-op
	if a.Count() != whole.Count() {
		t.Fatal("adding empty hist changed count")
	}
	empty.Add(&a)
	if empty.Count() != a.Count() || empty.Max() != a.Max() {
		t.Fatal("adding into empty hist lost state")
	}
	var z Hist
	if z.Quantile(0.5) != 0 || z.Max() != 0 {
		t.Fatal("empty hist quantile/max not 0")
	}
}
