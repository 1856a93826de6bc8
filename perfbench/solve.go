package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solver"
)

const (
	gradMapTol = 1e-5
	procs      = 2
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median, so one slow repetition does not move it.
	setupReps = 3
	// minSolves is the fewest measured solves a run makes, however
	// short --seconds is.
	minSolves = 3
	// pInvTol bounds how far a P=2 solve may sit from the 1-rank
	// baseline: each rank sums its own column block, so the Gram partial
	// sums regroup across P and the iterates agree to round-off, not bit
	// for bit (the tolerance internal/solver's rank-count invariance test
	// uses).
	pInvTol = 1e-10
	// refRelTol bounds the relative objective gap between the screened,
	// compressed wide-lean solve and the dense f64 reference solve.
	refRelTol = 1e-5
)

// solveWorkload is one distributed-solve workload on the tcp backend.
// The data instance is fixed; the workload seed picks the solver's
// sampling schedule. At a fixed shape and lambda ratio the rounds to
// tolerance depend on the instance, not on the schedule: covtype
// 24000x54 takes 20 to 440 rounds across data seeds 1-12, so an
// instance drawn per seed would measure the instance, not the code.
type solveWorkload struct {
	dataset      string
	dataSeed     uint64
	m, d         int // full-scale shape
	tinyM, tinyD int // shape under --tiny
	k            int
	activeSet    bool
	tier         string
	// pInvariant requires the P=2 result to equal the 1-rank
	// baseline's to round-off (pInvTol); otherwise the run checks
	// against a dense f64 reference solve made after set-up and left
	// out of setup_s.
	pInvariant bool
}

// tall-tcp: m >> d, so sampling and the Gram fill dominate and the
// wire payload is small; the paper's covtype case.
var tallTCP = solveWorkload{dataset: "covtype", dataSeed: 8, m: 24000, d: 54, tinyM: 1200, tinyD: 54, k: 8, pInvariant: true}

// wide-lean-tcp: screening shrinks the Gram fill and the tiered
// i8/f32/f64 frames carry the wire.
var wideLeanTCP = solveWorkload{dataset: "mnist", dataSeed: 5, m: 8000, d: 196, tinyM: 400, tinyD: 40, k: 4, activeSet: true, tier: "auto"}

func runTall(cfg config, r *report) error     { return tallTCP.run(cfg, r) }
func runWideLean(cfg config, r *report) error { return wideLeanTCP.run(cfg, r) }

// problem is a generated instance with its step size.
type problem struct {
	prob  *data.Problem
	gamma float64
}

// setup generates the instance, estimates the step size, starts a
// P=2 tcp world (one empty Run connects the loopback mesh) and warms
// up with one untimed 1-rank and one P=2 solve, setupReps times; it
// reports the median of each part and keeps the last instance.
// setup_s is the set-up's process CPU time, setup_wall_s its wall
// time.
func (wl solveWorkload) setup(cfg config, r *report) (problem, dist.World, error) {
	m, d := wl.m, wl.d
	if cfg.Tiny {
		m, d = wl.tinyM, wl.tinyD
	}
	var gens, lips, walls, cpus []float64
	var pr problem
	var world dist.World
	for i := 0; i < setupReps; i++ {
		c0 := now()
		t0 := time.Now()
		prob, err := data.LoadWith(wl.dataset, m, d, wl.dataSeed)
		if err != nil {
			return problem{}, nil, fmt.Errorf("generate data: %w", err)
		}
		t1 := time.Now()
		l := solver.SampledLipschitz(prob.X, prob.Y, 0.1, 8, wl.dataSeed)
		t2 := time.Now()
		w, err := dist.NewWorldOn("tcp", procs, perf.Comet())
		if err != nil {
			return problem{}, nil, fmt.Errorf("start tcp world: %w", err)
		}
		if err := w.Run(func(dist.Comm) error { return nil }); err != nil {
			return problem{}, nil, fmt.Errorf("connect tcp world: %w", err)
		}
		pr, world = problem{prob: prob, gamma: solver.GammaFromLipschitz(l)}, w
		opts := wl.options(pr, cfg.Seed)
		if s := solveSelf(pr, opts); s.err != nil {
			return problem{}, nil, fmt.Errorf("warm-up 1-rank solve: %w", s.err)
		}
		if s := solveOn(world, pr, opts); s.err != nil {
			return problem{}, nil, fmt.Errorf("warm-up P=%d solve: %w", procs, s.err)
		}
		wall, cpu := c0.since()
		gens = append(gens, t1.Sub(t0).Seconds())
		lips = append(lips, t2.Sub(t1).Seconds())
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
	}
	r.setE2E("setup_s", "s", median(cpus))
	r.setLayer("setup_wall_s", "s", median(walls))
	r.setLayer("data.gen_s", "s", median(gens))
	r.setLayer("solver.lipschitz_s", "s", median(lips))
	return pr, world, nil
}

func (wl solveWorkload) options(pr problem, seed uint64) solver.Options {
	o := solver.Defaults()
	o.Lambda = pr.prob.Lambda
	o.Reg = prox.L1{Lambda: pr.prob.Lambda}
	o.Gamma = pr.gamma
	o.B = 0.1
	o.K = wl.k
	o.S = 1
	o.PackedHessian = true
	o.GradMapTol = gradMapTol
	o.MaxIter = 100000
	o.Seed = seed
	o.ActiveSet = wl.activeSet
	o.CompressTier = wl.tier
	return o
}

// timedSolve is one solve with its wall and process CPU time and its
// heap allocation.
type timedSolve struct {
	res      *solver.Result
	err      error
	sec, cpu float64
	allocMB  float64
}

// measure times one solve and the heap it allocates.
func measure(solve func() (*solver.Result, error)) timedSolve {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	res, err := solve()
	sec, cpu := start.since()
	runtime.ReadMemStats(&after)
	return timedSolve{res: res, err: err, sec: sec, cpu: cpu, allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6}
}

// solveOn solves on world the way solver.SolveDistributedContext does
// for every caller: each rank runs RCSFISTAContext on its column block.
func solveOn(w dist.World, pr problem, opts solver.Options) timedSolve {
	return measure(func() (*solver.Result, error) {
		return solver.SolveDistributedContext(context.Background(), w, pr.prob.X, pr.prob.Y, opts)
	})
}

// solveSelf is the sequential solve on one SelfComm rank.
func solveSelf(pr problem, opts solver.Options) timedSolve {
	return measure(func() (*solver.Result, error) {
		self := dist.NewSelfComm(perf.Comet())
		return solver.RCSFISTA(self, solver.Partition(pr.prob.X, pr.prob.Y, 1, 0), opts)
	})
}

// checkSolve applies the checks every solve must pass, converged and
// within the gradient-map tolerance by the benchmark's own count, and
// reports whether it passed; a solve that fails them is a failed
// operation.
func checkSolve(r *report, what string, s timedSolve, pr problem, opts solver.Options) bool {
	switch {
	case s.err != nil:
		r.fail("%s: %v", what, s.err)
		return false
	case !s.res.Converged:
		r.fail("%s: stopped unconverged after %d iterations", what, s.res.Iters)
		return false
	}
	if g := gradMapNorm(pr.prob.X, pr.prob.Y, opts.Reg, opts.Gamma, s.res.W); !(g <= gradMapTol) {
		r.fail("%s: gradient-map norm %.3g of the returned W exceeds %g", what, g, gradMapTol)
		return false
	}
	return true
}

// check is checkSolve plus the comparison with want: the 1-rank
// partner under P-invariance, else the dense f64 reference.
func (wl solveWorkload) check(r *report, what string, s timedSolve, pr problem, opts solver.Options, want *solver.Result) bool {
	if !checkSolve(r, what, s, pr, opts) {
		return false
	}
	if want == nil {
		return true
	}
	if wl.pInvariant {
		dw := maxAbsDiff(s.res.W, want.W)
		if dw > pInvTol || relDiff(s.res.FinalObj, want.FinalObj) > pInvTol {
			r.fail("%s: P=%d result is not the 1-rank baseline's: max |dW| %.3g, objective %.17g vs %.17g",
				what, procs, dw, s.res.FinalObj, want.FinalObj)
			return false
		}
	} else if d := relDiff(s.res.FinalObj, want.FinalObj); d > refRelTol {
		r.fail("%s: objective %.17g is %.3g relative from the dense f64 reference %.17g",
			what, s.res.FinalObj, d, want.FinalObj)
		return false
	}
	return true
}

// reference returns the result every solve is checked against under
// !pInvariant: an untimed dense f64 1-rank solve (no screening, no
// compression) of the same problem. It is made after set-up and left
// out of setup_s.
func (wl solveWorkload) reference(r *report, pr problem, opts solver.Options) *solver.Result {
	dense := opts
	dense.ActiveSet = false
	dense.CompressTier = ""
	ref := solveSelf(pr, dense)
	r.attempted++
	if !checkSolve(r, "dense f64 reference solve", ref, pr, dense) {
		return nil
	}
	return ref.res
}

// schedules is how many sampling schedules a run cycles through, one
// per solve pair: the schedule moves the work of a solve by several
// percent (screening and tier decisions follow the samples), and the
// run's medians should not rest on a single schedule.
const schedules = 8

// scheduleOpts returns opts under schedule n of the run's seed.
func scheduleOpts(opts solver.Options, seed uint64, n int) solver.Options {
	opts.Seed = seed*schedules + uint64(n%schedules) + 1
	return opts
}

// run alternates a timed 1-rank solve, the sequential baseline of
// speedup_p2, with a timed P=2 solve on tcp of the same schedule until
// the run's seconds are spent; speedup_p2 is the median over these
// back-to-back pairs, so a slow spell of the host moves both sides. Under P-invariance each P=2 solve is
// checked against its 1-rank partner; otherwise both are checked
// against the dense reference.
func (wl solveWorkload) run(cfg config, r *report) error {
	pr, world, err := wl.setup(cfg, r)
	if err != nil {
		return err
	}
	opts := wl.options(pr, cfg.Seed)
	var ref *solver.Result
	if !wl.pInvariant {
		ref = wl.reference(r, pr, opts)
	}
	if cfg.Trace {
		return wl.traced(cfg, r, pr, world, opts, ref)
	}

	var seqs, secs, cpus, speedups, models, allocs []float64
	var rounds []float64
	start := now()
	for n := 0; n < minSolves || time.Since(start.wall).Seconds() < cfg.Seconds; n++ {
		o := scheduleOpts(opts, cfg.Seed, n)
		seq := solveSelf(pr, o)
		r.attempted++
		seqs = append(seqs, seq.sec)
		want := ref
		if wl.check(r, fmt.Sprintf("1-rank solve %d", n), seq, pr, o, ref) && wl.pInvariant {
			want = seq.res
		}
		s := solveOn(world, pr, o)
		r.attempted++
		secs = append(secs, s.sec)
		cpus = append(cpus, s.cpu)
		allocs = append(allocs, s.allocMB)
		if want == nil {
			r.fail("P=%d solve %d: no reference to check it against", procs, n)
		} else if wl.check(r, fmt.Sprintf("P=%d solve %d", procs, n), s, pr, o, want) {
			models = append(models, s.res.ModelSeconds)
			rounds = append(rounds, float64(s.res.Rounds))
			speedups = append(speedups, seq.sec/s.sec)
		}
	}

	r.setE2E("solve_cpu_s", "s", median(cpus))
	r.setE2E("model_s", "s", median(models))
	r.setE2E("alloc_mb", "MB", median(allocs))
	setWallLayers(r, secs, speedups, start.stealShare())
	r.note("%d P=%d solves on tcp (median %.0f rounds) and %d 1-rank solves (median %.4f s) in %.1f s",
		len(secs), procs, median(rounds), len(seqs), median(seqs), time.Since(start.wall).Seconds())
	return nil
}

// setWallLayers reports the wall-clock figures of a solve workload:
// the median P=2 solve, the median over pairs of the 1-rank ÷ P=2
// time, P=2 solves per second of solve time, solve latency
// percentiles, and the share of CPU time the host stole meanwhile.
func setWallLayers(r *report, secs, speedups []float64, steal float64) {
	r.setLayer("solve_s", "s", median(secs))
	r.setLayer("speedup_p2", "ratio", median(speedups))
	r.setLayer("fit_rps", "1/s", float64(len(secs))/sum(secs))
	r.setLayer("fit_p50_ms", "ms", 1e3*percentile(secs, 50))
	r.setLayer("fit_p95_ms", "ms", 1e3*percentile(secs, 95))
	r.setLayer("host.steal_share", "ratio", steal)
}
