package solvercore

import (
	"slices"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/rng"
)

// TestSampleRangeMatchesLocalCols: every rank's SampleRange of its own
// column block is exactly LocalCols of the global Sample, on the
// sampled path and on the FullWhenSaturated identity path, and the
// ranks' sets together cover the global set.
func TestSampleRangeMatchesLocalCols(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 4, M: 97, Density: 1, Seed: 24})
	for _, s := range []StreamSampler{
		{Src: rng.NewSource(5), Epoch: 1, N: 97, Draw: 20},
		{Src: rng.NewSource(5), Epoch: 1, N: 97, Draw: 97, FullWhenSaturated: true},
		{Src: rng.NewSource(5), Epoch: 1, N: 97, Draw: 200, FullWhenSaturated: true},
	} {
		const procs = 3
		dst := make([][]int, procs)
		for h := 0; h < 4; h++ {
			global := s.Sample(h)
			total := 0
			for rank := 0; rank < procs; rank++ {
				l := Partition(p.X, p.Y, procs, rank)
				lo, hi := l.ColRange()
				dst[rank] = s.SampleRange(h, lo, hi, dst[rank])
				if want := l.LocalCols(global); !slices.Equal(dst[rank], want) {
					t.Fatalf("draw %d/%d h=%d rank %d: SampleRange = %v, want %v",
						s.Draw, s.N, h, rank, dst[rank], want)
				}
				total += len(dst[rank])
			}
			if total != len(global) {
				t.Fatalf("draw %d/%d h=%d: ranks hold %d of %d samples", s.Draw, s.N, h, total, len(global))
			}
		}
	}
}
