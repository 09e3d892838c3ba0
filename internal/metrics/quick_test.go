package metrics

// Property-based tests (testing/quick) for the statistics primitives.

import (
	"math"
	"testing"
	"testing/quick"
)

// sane filters quick-generated floats down to ordinary magnitudes.
func sane(raw []float64) []float64 {
	out := raw[:0]
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, math.Mod(v, 1e6))
	}
	return out
}

func TestQuickAccumulatorMatchesNaiveMean(t *testing.T) {
	f := func(raw []float64) bool {
		values := sane(raw)
		var acc Accumulator
		sum := 0.0
		for _, v := range values {
			acc.Add(v)
			sum += v
		}
		if len(values) == 0 {
			return acc.Mean() == 0
		}
		naive := sum / float64(len(values))
		scale := math.Max(1, math.Abs(naive))
		return math.Abs(acc.Mean()-naive)/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickAccumulatorMatchesNaiveVariance(t *testing.T) {
	f := func(raw []float64) bool {
		values := sane(raw)
		if len(values) < 2 {
			return true
		}
		var acc Accumulator
		mean := 0.0
		for _, v := range values {
			acc.Add(v)
			mean += v
		}
		mean /= float64(len(values))
		ss := 0.0
		for _, v := range values {
			d := v - mean
			ss += d * d
		}
		naive := ss / float64(len(values)-1)
		scale := math.Max(1, naive)
		return math.Abs(acc.Variance()-naive)/scale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		var acc Accumulator
		for _, v := range sane(raw) {
			acc.Add(v)
		}
		return acc.Variance() >= 0 && acc.CI95() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickConstantSeriesHasZeroSpread(t *testing.T) {
	f := func(v float64, nRaw uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		n := 2 + int(nRaw)%50
		var acc Accumulator
		for i := 0; i < n; i++ {
			acc.Add(v)
		}
		return acc.StdDev() < 1e-6*math.Max(1, math.Abs(v)) && acc.Mean() == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
