// Package loadgen drives a serve.Publisher-backed service with a
// deterministic closed-loop load generator and records what the paper's
// serving story needs measured: sustained query throughput and an
// HDR-style latency distribution (p50/p90/p99/p999) while the underlying
// shape is calm, churning or recovering from a catastrophe.
//
// The generator is closed-loop: each worker issues one query, waits for
// the answer, records the latency, and immediately issues the next — so
// QPS is a measurement of service capacity, not an offered-load knob.
// Queries are generated from the served keyspace itself (live positions
// in the current epoch), with worker-private seeded RNG streams so a run
// is reproducible query-for-query.
package loadgen

import "math/bits"

// The histogram is log-linear, the classic HDR layout: values below
// histSub are exact; above, each power-of-two range is split into
// histSub linear sub-buckets, giving a fixed relative error of at most
// 1/histSub (~3%) across the full uint64 range in a flat 1920-entry
// array — no allocation per Record, mergeable by element-wise add.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// The largest index is exp_max*histSub + (2*histSub - 1) with
	// exp_max = 64 - histSubBits - 1, hence the +1 exponent row.
	histBuckets = (64 - histSubBits + 1) * histSub
)

// Hist is a fixed-footprint latency histogram in nanoseconds. The zero
// value is ready to use. Not safe for concurrent use: each worker
// records into its own and the runner merges them with Add.
type Hist struct {
	n       uint64
	max     uint64
	buckets [histBuckets]uint32
}

// histIndex maps a value to its bucket: identity below histSub, then
// exponent*histSub + mantissa where the mantissa keeps histSubBits of
// precision below the leading bit.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits - 1
	return exp*histSub + int(v>>uint(exp))
}

// bucketMid returns the midpoint of bucket idx's value range, the value
// Quantile reports for ranks landing in it.
func bucketMid(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	exp := uint(idx>>histSubBits) - 1
	low := uint64(idx-int(exp)*histSub) << exp
	return low + 1<<exp/2
}

// Record adds one observation (nanoseconds).
func (h *Hist) Record(v uint64) {
	if v > h.max {
		h.max = v
	}
	h.n++
	h.buckets[histIndex(v)]++
}

// Add merges other into h (element-wise; relative error is unchanged).
func (h *Hist) Add(other *Hist) {
	if other.n == 0 {
		return
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
}

// Count returns how many observations were recorded.
func (h *Hist) Count() uint64 { return h.n }

// Max returns the exact largest observation (0 when empty).
func (h *Hist) Max() uint64 { return h.max }

// Quantile returns the value at quantile q in [0,1] — the bucket
// midpoint covering the ceil(q*n)-th smallest observation, so the
// answer is within the histogram's ~3% relative error. Returns 0 when
// empty; q<=0 yields the min bucket, q>=1 the max bucket.
func (h *Hist) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	// float64(x*y) rounds the product alone, so no GOARCH fuses it into
	// the conversion's subtraction (scripts/nofma.sh).
	rank := uint64(float64(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += uint64(c)
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}
