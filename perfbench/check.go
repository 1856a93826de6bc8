package main

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// gradMapNorm is the proximal gradient-mapping norm
// ||w - Prox_gamma(w - gamma grad f(w))|| / gamma of w, computed here
// from the prox package's exact gradient and operator rather than
// taken from the solver. It is zero exactly at optima, and it is the
// quantity the solver's GradMapTol stop promises to bring under the
// tolerance.
func gradMapNorm(x *sparse.CSC, y []float64, reg prox.Operator, gamma float64, w []float64) float64 {
	obj := prox.NewObjective(x, y, reg)
	g := make([]float64, len(w))
	obj.Gradient(g, w, nil)
	step := make([]float64, len(w))
	mat.AddScaled(step, w, -gamma, g, nil)
	reg.Apply(step, step, gamma, nil)
	mat.Sub(step, w, step, nil)
	return mat.Nrm2(step, nil) / gamma
}

// relDiff is |a-b| / max(|a|, |b|), 0 when both are 0.
func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// maxAbsDiff is the largest coordinate gap between two iterates.
func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// sameResult reports whether two solves returned the same W and
// FinalObj bit for bit.
func sameResult(a, b *solver.Result) bool {
	if len(a.W) != len(b.W) || math.Float64bits(a.FinalObj) != math.Float64bits(b.FinalObj) {
		return false
	}
	for i := range a.W {
		if math.Float64bits(a.W[i]) != math.Float64bits(b.W[i]) {
			return false
		}
	}
	return true
}
