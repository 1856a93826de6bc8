package sparse

import (
	"testing"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
)

// BenchmarkSampledGramPacked times one stage-B slot fill at the
// benchmark workloads' per-rank draws on P=2: the tall covtype shape
// (12000 local columns of d=54 at density 0.22, 1200 sampled) and the
// wide mnist shape (4000 local columns of d=196 at density 0.19, 400
// sampled). One op is one draw; GFLOP/s uses the kernel's own charge.
func BenchmarkSampledGramPacked(b *testing.B) {
	for _, c := range []struct {
		name        string
		d, m, draws int
		density     float64
	}{
		{"tall_d54_m12000_k1200", 54, 12000, 1200, 0.22},
		{"wide_d196_m4000_k400", 196, 4000, 400, 0.19},
	} {
		b.Run(c.name, func(b *testing.B) {
			a, y := gramRowsTestCSC(c.d, c.m, c.density, 17)
			cols := rng.NewSource(5).Stream(0, 0).SampleWithoutReplacement(c.m, c.draws)
			h := mat.NewSymPacked(c.d)
			r := make([]float64, c.d)
			var cost perf.Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Zero()
				mat.Zero(r)
				SampledGramPacked(a, h, r, y, cols, 1/float64(c.draws), &cost)
			}
			b.ReportMetric(float64(cost.Flops)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
