package solver

import (
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// SampledLipschitz estimates the effective Lipschitz constant of the
// stochastic gradient operator: the largest eigenvalue over trial draws
// of the subsampled Gram matrix H_n = (1/mbar) X I I^T X^T at sampling
// rate b. For small b the subsampled spectrum inflates well above the
// population L = lambda_max((1/m) X X^T) — up to roughly
// (1 + sqrt(d/mbar))^2 / (1 + sqrt(d/m))^2 for isotropic data — and a
// FISTA step tuned to the population L diverges. The Section 5
// experiments therefore set gamma = 1/SampledLipschitz(b), the
// practical counterpart of the Theorem 1 step bound.
//
// For b = 1 the function reduces to the exact power-iteration estimate
// of L. A 5% safety margin is included.
func SampledLipschitz(x *sparse.CSC, y []float64, b float64, trials int, seed uint64) float64 {
	m := x.Cols
	d := x.Rows
	mbar := int(b * float64(m))
	if mbar < 1 {
		mbar = 1
	}
	if mbar >= m {
		l := powerIterGram(x, nil)
		return 1.05 * l
	}
	if trials < 1 {
		trials = 8
	}
	src := rng.NewSource(seed ^ 0x5eed_11b5)
	h := mat.NewSymPacked(d)
	r := make([]float64, d)
	var lmax float64
	var cols []int
	for trial := 0; trial < trials; trial++ {
		cols = src.Stream(3, trial).SampleRange(m, mbar, 0, m, cols)
		h.Zero()
		mat.Zero(r)
		sparse.SampledGramPacked(x, h, r, y, cols, 1/float64(mbar), nil)
		if l := EstimateQuadLipschitz(h, 30, nil); l > lmax {
			lmax = l
		}
	}
	// The trial maximum underestimates the tail of the per-iteration
	// spectrum over a long run; a 20% margin covers the excess with
	// high probability (the concentration width is O(sqrt(d/mbar))).
	return 1.2 * lmax
}

// powerIterGram estimates lambda_max((1/m) X X^T) matrix-free.
func powerIterGram(x *sparse.CSC, y []float64) float64 {
	d := x.Rows
	m := float64(x.Cols)
	v := make([]float64, d)
	for i := range v {
		v[i] = 1
	}
	gv := make([]float64, d)
	scratch := make([]float64, x.Cols)
	var lam float64
	for it := 0; it < 30; it++ {
		x.MulVecT(scratch, v, nil)
		mat.Zero(gv)
		x.MulVec(gv, scratch, nil)
		mat.Scal(1/m, gv, nil)
		lam = mat.Nrm2(gv, nil)
		if lam == 0 {
			return 0
		}
		for i := range v {
			v[i] = gv[i] / lam
		}
	}
	return lam
}
