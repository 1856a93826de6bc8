package solver

// The engine's stage-A snapshot refresh and the instrumentation-side
// objective evaluation, split from rcsfista.go (which keeps the round
// loop, the update kernel and the solvercore hooks). Both paths here
// run one collective per call and route it through the tier policy.

import (
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
)

// refreshSnapshot re-centers the variance-reduction estimator at the
// current iterate: w-hat = w, full gradient by one distributed pass
// (Eq. 9 last term), momentum restart (Algorithm 3 epoch boundary).
func (e *engine) refreshSnapshot() {
	cost := e.c.Cost()
	copy(e.wSnap, e.wCurr)
	// Local partial of (1/m)(X X^T w - X y) over the local columns.
	e.xtw.MulVecT(e.scratch, e.wSnap, cost)
	mat.Axpy(-1, e.local.Y, e.scratch, cost)
	mat.Zero(e.fullGrad)
	e.local.X.MulVec(e.fullGrad, e.scratch, cost)
	mat.Scal(1/float64(e.m), e.fullGrad, cost)
	e.gradEF.Reduce(e.c, e.fullGrad, e.tierAt(len(e.fullGrad)))
	// Reference-free stopping: the exact gradient is in hand, so the
	// proximal gradient mapping norm comes for free (O(d) flops). The
	// auto tier policy reads the same norm as its tightening signal, so
	// it is also computed when auto compression is on — uncharged in
	// that case, since policy bookkeeping is not part of the algorithm.
	if e.opts.GradMapTol > 0 || e.tiers.auto {
		mcost := cost
		if e.opts.GradMapTol <= 0 {
			mcost = nil
		}
		mat.AddScaled(e.tmp, e.wSnap, -e.gamma, e.fullGrad, mcost)
		e.reg.Apply(e.tmp, e.tmp, e.gamma, mcost)
		mat.Sub(e.tmp, e.wSnap, e.tmp, mcost)
		e.gradMapNorm = mat.Nrm2(e.tmp, mcost) / e.gamma
		if e.opts.GradMapTol > 0 && e.gradMapNorm <= e.opts.GradMapTol {
			e.gradMapStop = true
		}
	}
	// Momentum restart.
	e.t = 1
	copy(e.wPrev, e.wCurr)
}

// evaluate computes the global objective F(wCurr) as instrumentation:
// the communication and flops are rolled back so cost accounting
// reflects only the algorithm (Section 5.1 measures error offline).
func (e *engine) evaluate() float64 {
	cost := e.c.Cost()
	saved := *cost
	e.xtw.MulVecT(e.scratch, e.wCurr, nil)
	var loss float64
	for i, t := range e.scratch {
		res := t - e.local.Y[i]
		loss += res * res
	}
	e.loss[0] = loss
	dist.AllreduceSumTier(e.c, e.loss[:], e.tierAt(1))
	f := e.loss[0]/(2*float64(e.m)) + e.reg.Value(e.wCurr, nil)
	*cost = saved
	return f
}

// checkpoint records a trace point and returns true when the stopping
// criterion fires. The evaluated objective doubles as the auto tier
// policy's stagnation signal.
func (e *engine) checkpoint() bool {
	obj := e.evaluate()
	e.tierProgress(obj)
	return e.rec.Checkpoint(obj)
}
