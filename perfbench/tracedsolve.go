package main

import (
	"fmt"
	"time"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// traced is the per-layer run of a solve workload. It alternates
// untraced solves with solves whose every rank Comm is wrapped in a
// timingComm, requires the two to agree bit for bit, and replays the
// first traced solve's kernel calls to split its time by layer.
func (wl solveWorkload) traced(cfg config, r *report, pr problem, world dist.World, opts solver.Options, ref *solver.Result) error {
	totals := &commTotals{d: pr.prob.X.Rows}
	tw := tracedWorld{World: world, totals: totals}
	var plain, traced, models, speedups []float64
	var first *solver.Result
	var firstOpts solver.Options
	seqRefs := make([]*solver.Result, schedules)
	start := now()
	for n := 0; n < minSolves || time.Since(start.wall).Seconds() < cfg.Seconds; n++ {
		o := scheduleOpts(opts, cfg.Seed, n)
		want := ref
		var seq timedSolve
		if n < schedules {
			// One 1-rank solve per schedule: the P-invariance
			// reference and the sequential side of speedup_p2.
			seq = solveSelf(pr, o)
			r.attempted++
			if wl.check(r, fmt.Sprintf("1-rank solve %d", n), seq, pr, o, ref) && wl.pInvariant {
				seqRefs[n] = seq.res
			}
		}
		if wl.pInvariant {
			want = seqRefs[n%schedules]
		}
		if want == nil {
			r.fail("solve %d: no reference to check it against", n)
			continue
		}
		u := solveOn(world, pr, o)
		t := solveOn(tw, pr, o)
		r.attempted += 2
		uok := wl.check(r, fmt.Sprintf("untraced solve %d", n), u, pr, o, want)
		tok := wl.check(r, fmt.Sprintf("traced solve %d", n), t, pr, o, want)
		plain = append(plain, u.sec)
		traced = append(traced, t.sec)
		if !uok || !tok {
			continue
		}
		if !sameResult(u.res, t.res) {
			r.problem("traced solve %d: W or FinalObj differ from the untraced solve", n)
		}
		models = append(models, u.res.ModelSeconds)
		if seq.res != nil {
			speedups = append(speedups, seq.sec/u.sec)
		}
		if first == nil {
			first, firstOpts = t.res, o
		}
	}
	if first == nil {
		return fmt.Errorf("no traced solve passed its checks")
	}
	setWallLayers(r, plain, speedups, start.stealShare())
	kt := replayKernels(pr.prob.X, pr.prob.Y, procs, firstOpts, first)
	setCommLayers(r, totals.snapshot(), procs)
	wall := median(traced)
	collSec := r.layer["dist.coll_s"].Value
	r.setLayer("rng.sample_s", "s", kt.sampleSec)
	r.setLayer("rng.sample_us", "us", 1e6*kt.sampleSec/float64(max(kt.draws, 1)))
	r.setLayer("sparse.gram_s", "s", kt.gramSec)
	r.setLayer("sparse.gram_gflops", "GFLOP/s", float64(kt.gramFlops)/kt.gramSec/1e9)
	r.setLayer("mat.mulvec_s", "s", kt.mulvecSec)
	r.setLayer("solvercore.rounds", "count", float64(first.Rounds))
	r.setLayer("solvercore.iters", "count", float64(first.Iters))
	r.setLayer("solvercore.round_ms", "ms", 1e3*wall/float64(max(first.Rounds, 1)))
	r.setLayer("solvercore.residual_s", "s", wall-kt.sampleSec-kt.gramSec-kt.mulvecSec-collSec)
	r.setLayer("perf.model_over_wall", "ratio", median(models)/median(plain))
	r.setLayer("trace.overhead_ratio", "ratio", wall/median(plain))
	r.note("%d untraced and %d traced solves; untraced median %.3f s, traced median %.3f s",
		len(plain), len(traced), median(plain), wall)
	return nil
}

// setCommLayers reports the dist layer per solve and per rank: calls
// by class and tier, words and messages on the wire, and the slowest
// rank's time inside collectives.
func setCommLayers(r *report, t commCounts, p int) {
	perRank := float64(max(t.runs, 1) * p)
	for c, name := range classNames {
		r.setLayer("dist.calls."+name, "count", float64(t.calls[c])/perRank)
	}
	r.setLayer("dist.calls.f32", "count", float64(t.f32)/perRank)
	r.setLayer("dist.calls.i8", "count", float64(t.i8)/perRank)
	r.setLayer("dist.words", "count", float64(t.words)/perRank)
	r.setLayer("dist.messages", "count", float64(t.msgs)/perRank)
	r.setLayer("dist.coll_s", "s", t.collSec/float64(max(t.runs, 1)))
}
