package rng

import (
	"math"
	"sync"
)

// identities pools identity permutations for the partial Fisher-Yates
// of SampleRange. A pooled slice is the identity over its full length
// whenever it is in the pool; a draw only ever touches its first n
// entries and restores them before putting it back, so one scratch
// serves every n up to its length and concurrent draws each hold their
// own.
var identities = sync.Pool{New: func() any { return new([]int32) }}

// SampleWithoutReplacement returns k distinct indices drawn uniformly
// from [0, n), in the order they were drawn. It panics if k > n, if
// either argument is negative, or if n exceeds math.MaxInt32 (the
// scratch is int32). The algorithm is a partial Fisher-Yates over a
// pooled identity permutation of [0, n): O(k) time per draw plus the
// O(n) scratch, which is built once and reused across calls.
func (r *Rng) SampleWithoutReplacement(n, k int) []int {
	return r.SampleRange(n, k, 0, n, make([]int, 0, k))
}

// SampleRange draws the same k indices as SampleWithoutReplacement,
// consuming the stream identically, and appends v-lo to dst[:0] for
// each drawn v in [lo, hi), in draw order. A rank owning the columns
// [lo, hi) of a shared sample space gets its local sample set without
// materializing the global one; with a warm dst and scratch it does
// not allocate. An empty or out-of-range [lo, hi) yields an empty set
// but still consumes the stream. It panics on the arguments
// SampleWithoutReplacement panics on.
func (r *Rng) SampleRange(n, k, lo, hi int, dst []int) []int {
	if k < 0 || n < 0 || k > n {
		panic("rng: invalid SampleWithoutReplacement arguments")
	}
	if n > math.MaxInt32 {
		panic("rng: SampleWithoutReplacement n exceeds the int32 scratch")
	}
	if cap(dst) < k {
		dst = make([]int, 0, k)
	}
	// Membership is one unsigned compare against [lo, hi) clipped to
	// [0, n), which holds every drawn v; the store is unconditional and
	// only the count depends on it, so the loop does not branch on the
	// (random) outcome.
	clo := min(max(lo, 0), n)
	width := uint(min(max(hi, clo), n) - clo)
	out := dst[:k]
	c := 0
	ps := identities.Get().(*[]int32)
	p := *ps
	for i := len(p); i < n; i++ {
		p = append(p, int32(i))
	}
	*ps = p
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
		v := int(p[i])
		out[c] = v - lo
		if uint(v-clo) < width {
			c++
		}
	}
	// Restore the identity in O(k). Only positions below k and the
	// home positions of drawn values >= k were written: a value leaves
	// its home j >= k only when swapped into the final position i < k,
	// where it stays, so p[0:k) still lists every displaced value.
	for i := 0; i < k; i++ {
		if v := p[i]; int(v) >= k {
			p[v] = v
		}
		p[i] = int32(i)
	}
	identities.Put(ps)
	return out[:c]
}

// SampleWithReplacement returns k indices drawn uniformly and
// independently from [0, n).
func (r *Rng) SampleWithReplacement(n, k int) []int {
	if k < 0 || n <= 0 {
		panic("rng: invalid SampleWithReplacement arguments")
	}
	out := make([]int, k)
	for i := range out {
		out[i] = r.Intn(n)
	}
	return out
}

// Bernoulli returns true with probability p.
func (r *Rng) Bernoulli(p float64) bool {
	return r.Float64() < p
}
