package main

import (
	"math"
	"sort"
	"time"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// kernelTimes is one rank's busy time in the rng, sparse and mat
// kernels over one solve, measured by replaying the solve's calls.
type kernelTimes struct {
	sampleSec float64 // rng: drawing the k sample index sets per round
	draws     int
	gramSec   float64 // sparse: the sampled Gram fill of every slot
	gramFlops int64   // flops the Gram kernels charge to perf.Cost
	mulvecSec float64 // mat: the Hessian-vector product of every update
}

// replayKernels re-runs, single-threaded on rank 0's column block of a
// p-rank partition, the kernel calls a solve with opts made: Rounds*K
// sample draws with the solver's shared stream sampler, one sampled
// Gram fill per draw, and one packed Hessian-vector product per
// update. Under ActiveSet the Gram and the product are restricted to a
// working set whose size follows the trace's Active stamps and whose
// members are the largest entries of the final iterate; the replay
// approximates the screened solve's kernel shapes, it does not
// reproduce its iterates.
func replayKernels(x *sparse.CSC, y []float64, p int, opts solver.Options, res *solver.Result) kernelTimes {
	local := solver.Partition(x, y, p, 0)
	m, d := x.Cols, x.Rows
	mbar := int(opts.B * float64(m))
	mbar = max(1, min(mbar, m))
	sampler := solvercore.StreamSampler{
		Src: rng.NewSource(opts.Seed), Epoch: 1, N: m, Draw: mbar, FullWhenSaturated: true,
	}
	order := supportOrder(res.W)
	pos := make([]int, d)
	rowScratch := make([]int, d)
	valScratch := make([]float64, d)
	r := make([]float64, d)
	scale := 1 / float64(mbar)

	var kt kernelTimes
	var cost perf.Cost
	var h *mat.SymPacked
	for draw := 0; draw < res.Rounds*opts.K; draw++ {
		t0 := time.Now()
		cols := local.LocalCols(sampler.Sample(draw))
		t1 := time.Now()
		a := activeAt(res, draw/opts.K, d)
		if h == nil || h.N != a {
			h = mat.NewSymPacked(a)
		}
		h.Zero()
		mat.Zero(r)
		if a == d {
			sparse.SampledGramPacked(local.X, h, r, local.Y, cols, scale, &cost)
		} else {
			act := append([]int(nil), order[:a]...)
			sort.Ints(act)
			for i := range pos {
				pos[i] = -1
			}
			for i, row := range act {
				pos[row] = i
			}
			sparse.SampledGramPackedRows(local.X, h, r, local.Y, cols, act, pos,
				rowScratch, valScratch, scale, &cost)
		}
		t2 := time.Now()
		kt.sampleSec += t1.Sub(t0).Seconds()
		kt.gramSec += t2.Sub(t1).Seconds()
		kt.draws++
	}
	kt.gramFlops = cost.Flops

	if h == nil {
		h = mat.NewSymPacked(d)
	}
	v := make([]float64, h.N)
	for i := range v {
		v[i] = 1 / float64(i+1)
	}
	out := make([]float64, h.N)
	start := time.Now()
	for it := 0; it < res.Iters; it++ {
		h.MulVec(out, v, nil)
	}
	kt.mulvecSec = time.Since(start).Seconds()
	return kt
}

// activeAt is the working-set size in force at round: the Active
// stamp of the last trace point at or before it, d when dense.
func activeAt(res *solver.Result, round, d int) int {
	a := d
	if res.Trace == nil {
		return a
	}
	for _, pt := range res.Trace.Points {
		if pt.Round > round {
			break
		}
		if pt.Active > 0 {
			a = pt.Active
		} else {
			a = d
		}
	}
	return a
}

// supportOrder lists coordinates by decreasing magnitude in w.
func supportOrder(w []float64) []int {
	idx := make([]int, len(w))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return math.Abs(w[idx[a]]) > math.Abs(w[idx[b]]) })
	return idx
}
