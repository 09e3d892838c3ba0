// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Reproducibility is a first-class requirement of the evaluation harness:
// every experiment in the paper is averaged over repeated runs, and we want
// any single run to be replayable from its seed alone. The generator is a
// xoshiro256** seeded through splitmix64, following the reference
// implementations by Blackman and Vigna. It is not cryptographically secure
// and must never be used for security purposes.
//
// A Rand can derive independent sub-streams with Split, which lets the
// engine hand every node its own generator without correlated sequences.
package xrand

// Rand is a deterministic pseudo-random number generator.
//
// The zero value is not usable; construct instances with New or Split.
// Rand is not safe for concurrent use; derive one per goroutine with Split.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from seed. Any seed value is acceptable,
// including zero: the state is expanded through splitmix64, which maps the
// full 64-bit seed space to well-distributed initial states.
func New(seed uint64) *Rand {
	var r Rand
	r.reseed(seed)
	return &r
}

func (r *Rand) reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// A xoshiro state of all zeros is a fixed point; splitmix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split returns a new generator whose future outputs are statistically
// independent from the receiver's. The receiver advances by one step.
func (r *Rand) Split() *Rand {
	child := &Rand{}
	child.reseed(r.Uint64())
	return child
}

// State returns the raw xoshiro256** state words. Together with SetState
// it allows a generator to be serialized and later resumed mid-stream,
// which the snapshot/restore machinery relies on for bit-identical replay.
func (r *Rand) State() [4]uint64 {
	return [4]uint64{r.s0, r.s1, r.s2, r.s3}
}

// SetState overwrites the generator state with previously captured words.
// An all-zero state is a xoshiro fixed point and is therefore rejected by
// substituting the same non-zero word reseed would use; State never returns
// all zeros for a generator constructed through New/Split/Reseed.
func (r *Rand) SetState(s [4]uint64) {
	r.s0, r.s1, r.s2, r.s3 = s[0], s[1], s[2], s[3]
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// Reseed resets the generator to the state New(seed) would produce,
// reusing the receiver's storage. Reseeding an existing generator from a
// stream of parent-drawn seeds is exactly equivalent to Split — the
// batched simulation engine uses this to hand every step of a round its
// own pre-split stream without allocating one generator per step.
func (r *Rand) Reseed(seed uint64) { r.reseed(seed) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand, because a non-positive bound is always a programming error.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// multiply-shift rejection method, which avoids modulo bias.
func (r *Rand) boundedUint64(bound uint64) uint64 {
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= -bound%bound {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + t>>32 + (t&mask32+a0*b1)>>32
	return hi, lo
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n). When
// k >= n it returns all n indices (in random order). It uses a partial
// Fisher–Yates shuffle, O(k) space beyond the index table.
func (r *Rand) Sample(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	if k <= 0 {
		return nil
	}
	// Partial shuffle over a sparse permutation table: only displaced
	// entries are stored, so sampling k of n costs O(k) memory.
	displaced := make(map[int]int, 2*k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vj, ok := displaced[j]
		if !ok {
			vj = j
		}
		vi, ok := displaced[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		displaced[j] = vi
	}
	return out
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
