package metrics

import "math"

// Accumulator computes running mean and variance with Welford's algorithm,
// numerically stable for long experiment series.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	// float64(x*y) rounds the product alone, so no GOARCH fuses it into the sum (scripts/nofma.sh).
	a.m2 += float64(delta * (x - a.mean))
}

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// CI95 returns the half-width of the 95% confidence interval of the mean,
// using Student's t distribution (the paper reports "confidence interval
// at 95%" over 25 experiments, hence small-sample t values matter).
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return tCritical95(a.n-1) * a.StdDev() / math.Sqrt(float64(a.n))
}

// tCritical95 returns the two-tailed 5% critical value of Student's t
// distribution with df degrees of freedom.
func tCritical95(df int) float64 {
	// Exact table for small df, asymptote for large df.
	table := []float64{
		0: math.Inf(1),
		1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
		6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
		11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
		16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
		21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
		26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
	}
	switch {
	case df <= 0:
		return math.Inf(1)
	case df < len(table):
		return table[df]
	case df < 40:
		return 2.03
	case df < 60:
		return 2.01
	case df < 120:
		return 1.99
	default:
		return 1.96
	}
}
