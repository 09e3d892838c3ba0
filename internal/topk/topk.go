// Package topk provides allocation-free partial selection of the k
// smallest elements of a keyed slice pair.
//
// The gossip layer (T-Man) spends most of its time ranking view entries
// by distance and keeping the closest k. Sorting the whole
// candidate set with sort.Slice costs O(n log n) comparator closure calls
// and allocates (indices, reflect-based swapper); SmallestK touches only
// the caller's slices and picks one of two selection paths by k:
//
//   - small k (at most insertionK — message sizes and ψ-windows): a
//     bounded insertion. The prefix is insertion-sorted, then every later
//     element costs one comparison with the current k-th smallest and is
//     shifted in only when it orders first. That comparison is rarely true
//     and so well predicted, where a quickselect's pivot comparisons are
//     coin flips; and the gossip layers' candidate lists (a view ranked
//     against its owner, re-ranked against a nearby target) arrive nearly
//     sorted, so few elements shift in at all.
//   - large k (view caps): a quickselect partition followed by an
//     insertion sort of the selected prefix.
//
// With k = len(keys) there is nothing to select and SmallestK only sorts.
//
// Ties on the key break toward the smaller payload value, so the result
// is a pure function of the (key, payload) multiset — independent of the
// input permutation. The simulation engine relies on this for
// reproducibility: the same candidate set always yields the same
// selection, no matter what order gossip happened to assemble it in.
package topk

import "cmp"

// insertionK is the largest k that SmallestK selects by bounded insertion
// instead of quickselect. Bounded insertion costs one comparison per
// element plus about k/2 moves per element that shifts in, so it wins
// while k stays near message sizes; view caps take quickselect.
const insertionK = 32

// SmallestK partially reorders keys (and payload, kept in lockstep) so
// that keys[:k'] holds the k' = min(k, len(keys)) smallest keys in
// increasing order, and returns k'. The elements beyond k' are left in an
// unspecified order. keys and payload must have equal length.
func SmallestK[P cmp.Ordered](keys []float64, payload []P, k int) int {
	if len(keys) != len(payload) {
		panic("topk: keys and payload length mismatch")
	}
	if k <= 0 {
		return 0
	}
	if k > len(keys) {
		k = len(keys)
	}
	switch {
	case k == len(keys):
		sortRange(keys, payload, 0, k)
	case k <= insertionK:
		insertSmallest(keys, payload, k)
	default:
		quickselect(keys, payload, k)
		sortRange(keys, payload, 0, k)
	}
	return k
}

// insertSmallest keeps keys[:k] as the sorted k smallest seen so far: it
// sorts the first k, then each later element is compared once with the
// current k-th smallest and, when it orders first, swapped with it (so the
// slice stays a permutation of its input) and shifted into place. The k-th
// (key, payload) lives in locals, reloaded only after an element shifts
// in, so the common rejected element costs its own two loads and one
// comparison.
func insertSmallest[P cmp.Ordered](keys []float64, payload []P, k int) {
	sortRange(keys, payload, 0, k)
	last := k - 1
	lk, lp := keys[last], payload[last]
	for i := k; i < len(keys); i++ {
		ki, pi := keys[i], payload[i]
		if !less(ki, pi, lk, lp) {
			continue
		}
		keys[i], payload[i] = lk, lp
		j := last
		for ; j > 0 && less(ki, pi, keys[j-1], payload[j-1]); j-- {
			keys[j], payload[j] = keys[j-1], payload[j-1]
		}
		keys[j], payload[j] = ki, pi
		lk, lp = keys[last], payload[last]
	}
}

// less orders by key, breaking ties on payload (total order over
// distinct payloads, which makes selection permutation-independent).
func less[P cmp.Ordered](ka float64, pa P, kb float64, pb P) bool {
	if ka != kb {
		return ka < kb
	}
	return pa < pb
}

// quickselect partitions keys so the k smallest occupy keys[:k], using
// Hoare partitioning with a median-of-three pivot. Average O(n).
func quickselect[P cmp.Ordered](keys []float64, payload []P, k int) {
	lo, hi := 0, len(keys)
	for hi-lo > 16 {
		p := partition(keys, payload, lo, hi)
		switch {
		case p == k:
			return
		case p < k:
			lo = p
		default:
			hi = p
		}
	}
	sortRange(keys, payload, lo, hi)
}

// partition reorders [lo, hi) around a median-of-three pivot and returns
// the split point p such that every element of [lo, p) is <= every
// element of [p, hi) under the tie-broken order, with lo < p < hi.
func partition[P cmp.Ordered](keys []float64, payload []P, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Sort (lo, mid, hi-1) so keys[mid] is the median of the three.
	if less(keys[mid], payload[mid], keys[lo], payload[lo]) {
		swap(keys, payload, mid, lo)
	}
	if less(keys[hi-1], payload[hi-1], keys[mid], payload[mid]) {
		swap(keys, payload, hi-1, mid)
		if less(keys[mid], payload[mid], keys[lo], payload[lo]) {
			swap(keys, payload, mid, lo)
		}
	}
	pk, pp := keys[mid], payload[mid]

	i, j := lo-1, hi
	for {
		for {
			i++
			if !less(keys[i], payload[i], pk, pp) {
				break
			}
		}
		for {
			j--
			if !less(pk, pp, keys[j], payload[j]) {
				break
			}
		}
		if i >= j {
			// The pivot itself sits in [lo, j], so j+1 is a valid split
			// strictly inside (lo, hi).
			return j + 1
		}
		swap(keys, payload, i, j)
	}
}

// sortRange insertion-sorts [lo, hi); the ranges it sorts are small
// (a bounded insertion's first k, quickselect's selected prefix up to a
// view cap, quickselect's short tail ranges), where insertion sort is
// fastest. It is also adaptive, which callers rely on: SmallestK with
// k = len(keys) runs only this sort, so T-Man re-ranking a view that is
// still nearly sorted (restored sorted, or after a few positions moved)
// costs about one pass. Each element is held in locals while the larger
// ones before it shift up a slot, then written once where it belongs: a
// step writes one (key, payload) where a swap writes two, and the result
// is the one swapping it down gives.
func sortRange[P cmp.Ordered](keys []float64, payload []P, lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		ki, pi := keys[i], payload[i]
		j := i
		for ; j > lo && less(ki, pi, keys[j-1], payload[j-1]); j-- {
			keys[j], payload[j] = keys[j-1], payload[j-1]
		}
		keys[j], payload[j] = ki, pi
	}
}

func swap[P cmp.Ordered](keys []float64, payload []P, i, j int) {
	keys[i], keys[j] = keys[j], keys[i]
	payload[i], payload[j] = payload[j], payload[i]
}

// Scratch is a reusable pair of parallel selection buffers for SmallestK
// callers that select on every gossip exchange. It grows monotonically
// and is not safe for concurrent use — pool one per worker slot (the
// gossip layers keep one per engine exchange worker; slot 0 serves the
// sequential engine and external queries).
type Scratch[P cmp.Ordered] struct {
	keys    []float64
	payload []P
}

// Get returns the buffers resliced to length n, growing them if needed.
// Contents are unspecified; callers overwrite every slot before use.
func (s *Scratch[P]) Get(n int) ([]float64, []P) {
	if cap(s.keys) < n {
		s.keys = make([]float64, n)
		s.payload = make([]P, n)
	}
	return s.keys[:n], s.payload[:n]
}
