package main

import (
	"math"
	"sort"
	"strings"
)

// ledger holds what every replay measured, keyed by the scripted step
// that produced it ("restore", "round/3", "publish/0", ...). Replays run
// byte-identical work, so the samples under one key differ only by what
// the host and the Go runtime added.
type ledger struct {
	keys []string // first-seen order, so sums add in script order
	t    map[string][]float64
}

func newLedger() *ledger { return &ledger{t: make(map[string][]float64)} }

func (l *ledger) add(key string, v ...float64) {
	if _, ok := l.t[key]; !ok {
		l.keys = append(l.keys, key)
	}
	l.t[key] = append(l.t[key], v...)
}

// match returns the keys equal to sel or, when sel ends in "/", the keys
// under that prefix.
func (l *ledger) match(sel string) []string {
	var out []string
	for _, k := range l.keys {
		if k == sel || (strings.HasSuffix(sel, "/") && strings.HasPrefix(k, sel)) {
			out = append(out, k)
		}
	}
	return out
}

// fasterHalf is the replay floor of one step: the mean of the faster
// half of its samples (the fastest ⌈n/2⌉). No slow replay — nor a slow
// stretch of the host covering up to half of them — can move it, and
// unlike the single fastest sample it does not hang on one lucky draw
// when the host has no quiet state to find (README.md, "noise study").
func fasterHalf(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := (len(s) + 1) / 2
	sum := 0.0
	for _, x := range s[:k] {
		sum += x
	}
	return sum / float64(k)
}

// floor is Σ_steps fasterHalf(samples) over the selected steps, with the
// step count (0 when nothing matched). A step a replay runs several times
// (Publish, Restore) simply has several samples per replay.
func (l *ledger) floor(sel string) (sum float64, steps int) {
	return l.reduce(sel, fasterHalf)
}

// med is Σ_steps median_replays: what a typical replay paid, reported
// beside the floor so that what the floor hides stays visible.
func (l *ledger) med(sel string) (sum float64, steps int) {
	return l.reduce(sel, median)
}

func (l *ledger) reduce(sel string, f func([]float64) float64) (sum float64, steps int) {
	for _, k := range l.match(sel) {
		sum += f(l.t[k])
		steps++
	}
	return sum, steps
}

// all pools every sample under the selected steps.
func (l *ledger) all(sel string) []float64 {
	var out []float64
	for _, k := range l.match(sel) {
		out = append(out, l.t[k]...)
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics (q in [0,1]).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(v,
// n=4) does (exclusive method), which is what the acceptance check of the
// benchmark contract computes spreads from.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points, 1-based positions
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}
