package solvercore

import (
	"slices"

	"github.com/hpcgo/rcsfista/internal/rng"
)

// StreamSampler draws Draw distinct indices from [0, N) using stream
// (Epoch, h) of Src — the shared sampling scheme of every solver here.
// When FullWhenSaturated is set and Draw >= N it short-circuits to the
// identity set without consuming the stream, matching the RC-SFISTA
// engine; the distributed erm ProxNewton historically always consumed
// the stream, so it leaves the flag unset.
type StreamSampler struct {
	Src               rng.Source
	Epoch             int
	N, Draw           int
	FullWhenSaturated bool
}

// Sample returns the index set of round h.
func (s StreamSampler) Sample(h int) []int {
	return s.SampleRange(h, 0, s.N, nil)
}

// SampleRange returns the members of round h's index set that fall in
// [lo, hi), shifted by -lo, in draw order, reusing dst's storage: the
// local column set of a rank owning global columns [lo, hi), with no
// global set materialized. With a warm dst it does not allocate.
func (s StreamSampler) SampleRange(h, lo, hi int, dst []int) []int {
	if s.FullWhenSaturated && s.Draw >= s.N {
		first, end := max(lo, 0), min(hi, s.N)
		dst = slices.Grow(dst[:0], max(end-first, 0))
		for i := first; i < end; i++ {
			dst = append(dst, i-lo)
		}
		return dst
	}
	return s.Src.Stream(s.Epoch, h).SampleRange(s.N, s.Draw, lo, hi, dst)
}
