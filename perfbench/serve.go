package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/load"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/serve"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// The serve-path workload: descending lambda-path sweeps over a few
// covtype-shaped instances, POSTed to an in-process server by a closed
// loop of clients. Each sweep walks one instance's path under its own
// solver seed, so its first fit is cold and the rest start warm from
// the path cache, however many sweeps a run makes.
const (
	serveDataset   = "covtype"
	serveInstances = 4
	sweepLen       = 8
	ratioHi        = 0.5
	ratioLo        = 0.05
	// serveClients is the closed loop's client count: one fit runs
	// while the other client's request waits in the queue.
	serveClients = 2
	// tracedChan is the dist backend the traced run points the server
	// at: the chan runtime with every rank Comm timed.
	tracedChan = "perfbench-traced-chan"
	// seqHeader carries the request id the handler-timing middleware
	// files its measurement under.
	seqHeader = "X-Perfbench-Seq"
)

// serveTotals collects the traced server solves' collective figures.
var serveTotals = &commTotals{}

func init() {
	dist.RegisterBackend(tracedBackend{name: tracedChan, inner: "chan", totals: serveTotals})
}

// clientCount is the closed loop's client count, never more than the
// host has cores.
func clientCount() int { return min(serveClients, runtime.NumCPU()) }

func serveShape(cfg config) (m, d int) {
	if cfg.Tiny {
		return 800, 30
	}
	return 2000, 54
}

func instanceRef(cfg config, i int) serve.DatasetRef {
	m, d := serveShape(cfg)
	return serve.DatasetRef{Name: serveDataset, Samples: m, Features: d, Seed: uint64(i + 1)}
}

// handlerTimes is the benchmark-side middleware that times the
// server's handler for each request id.
type handlerTimes struct {
	mu sync.Mutex
	ms map[string]float64
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		if id := r.Header.Get(seqHeader); id != "" {
			h.mu.Lock()
			h.ms[id] = ms
			h.mu.Unlock()
		}
	})
}

func (h *handlerTimes) get(id string) (float64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ms, ok := h.ms[id]
	return ms, ok
}

// liveServer is a started server and its HTTP front.
type liveServer struct {
	sv      *serve.Server
	ts      *httptest.Server
	handler *handlerTimes
}

func (s *liveServer) close() {
	s.ts.Close() // waits for in-flight handlers
	s.sv.Close()
}

// startServer starts a server with one solve worker and P=2 worlds and
// warms its dataset cache with one unstored fit per instance.
func startServer(cfg config, transport string) (*liveServer, error) {
	sv := serve.New(serve.Config{Workers: 1, Procs: procs, Transport: transport, QueueCap: 4 * serveClients})
	ht := &handlerTimes{ms: map[string]float64{}}
	s := &liveServer{sv: sv, ts: httptest.NewServer(ht.wrap(sv.Handler())), handler: ht}
	warm := false
	for i := 0; i < serveInstances; i++ {
		ref := instanceRef(cfg, i)
		fr := serve.FitRequest{Dataset: &ref, LambdaRatio: ratioHi, Procs: procs, Warm: &warm, NoStore: true}
		o := postFit(s.ts.URL, &fr, "")
		if o.err != nil || !o.resp.Converged {
			s.close()
			return nil, fmt.Errorf("warm-up fit on instance %d: %v (converged=%t)", i, o.err, o.resp.Converged)
		}
	}
	return s, nil
}

// fitOutcome is one completed /fit request.
type fitOutcome struct {
	id        string
	latencyMS float64
	resp      serve.FitResponse
	err       error
}

var httpClient = &http.Client{Timeout: 2 * time.Minute}

func postFit(base string, fr *serve.FitRequest, id string) fitOutcome {
	o := fitOutcome{id: id}
	body, err := json.Marshal(fr)
	if err != nil {
		o.err = err
		return o
	}
	req, err := http.NewRequest(http.MethodPost, base+"/fit", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(seqHeader, id)
	}
	start := time.Now()
	resp, err := httpClient.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("HTTP %d", resp.StatusCode)
		return o
	}
	if err := json.NewDecoder(resp.Body).Decode(&o.resp); err != nil {
		o.err = fmt.Errorf("decode response: %w", err)
		return o
	}
	o.latencyMS = float64(time.Since(start)) / float64(time.Millisecond)
	return o
}

// sweep returns sweep j's requests: a geometric lambda path from
// ratioHi down to ratioLo, built by the load package's schedule, on one
// of the fixed instances, under a solver seed of its own. The workload
// seed picks the instance order and the solver seeds.
func sweep(cfg config, j int) []load.Request {
	ref := instanceRef(cfg, int((uint64(j)+cfg.Seed)%serveInstances))
	sched := load.BuildSchedule(load.Config{
		Requests: sweepLen, Sweep: true, SweepLen: sweepLen,
		RatioHi: ratioHi, RatioLo: ratioLo, Dataset: ref, Procs: procs, Warm: true,
		Seed: cfg.Seed,
	})
	for i := range sched {
		sched[i].Fit.Seed = cfg.Seed<<20 + uint64(j) + 1
	}
	return sched
}

// drive runs the closed loop for cfg.Seconds: each client walks whole
// sweeps, sending the next fit only after the previous reply. Sweeps
// are handed out in cycles of one per instance, and once the time is
// up no new cycle starts, so every run measures the same mix of
// instances and lambdas whatever its length.
func drive(cfg config, s *liveServer) ([]fitOutcome, float64) {
	var mu sync.Mutex
	var outs []fitOutcome
	nextSweep, stopped := 0, false
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (nextSweep%serveInstances == 0 && !time.Now().Before(deadline)) {
			stopped = true
			return 0, false
		}
		nextSweep++
		return nextSweep - 1, true
	}
	var seq atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, ok := take(); ok; j, ok = take() {
				for _, rq := range sweep(cfg, j) {
					o := postFit(s.ts.URL, &rq.Fit, strconv.FormatInt(seq.Add(1), 10))
					mu.Lock()
					outs = append(outs, o)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start).Seconds()
}

func runServePath(cfg config, r *report) error {
	transport := "chan"
	if cfg.Trace {
		transport = tracedChan
	}
	_, d := serveShape(cfg)
	serveTotals.reset(d)

	var setupWalls, setupCPUs []float64
	var s *liveServer
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		start := now()
		var err error
		if s, err = startServer(cfg, transport); err != nil {
			return err
		}
		wall, cpu := start.since()
		setupWalls = append(setupWalls, wall)
		setupCPUs = append(setupCPUs, cpu)
	}
	r.setE2E("setup_s", "s", median(setupCPUs))
	r.setLayer("setup_wall_s", "s", median(setupWalls))
	serveTotals.reset(d)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	outs, wall := drive(cfg, s)
	s.close()
	_, loopCPU := start.since()
	steal := start.stealShare()
	runtime.ReadMemStats(&after)

	var lat, solveMS, models, queueMS, clientMS []float64
	var pathHits, dsHits, warmFits, warmRounds, rounds, iters int
	var okFits []serve.FitResponse
	for _, o := range outs {
		r.attempted++
		switch {
		case o.err != nil:
			r.fail("fit %s: %v", o.id, o.err)
			continue
		case o.resp.Partial:
			r.fail("fit %s: partial result: %s", o.id, o.resp.Error)
			continue
		case !o.resp.Converged:
			r.fail("fit %s: not converged after %d iterations (lambda %.4g)", o.id, o.resp.Iters, o.resp.Lambda)
			continue
		}
		okFits = append(okFits, o.resp)
		lat = append(lat, o.latencyMS)
		solveMS = append(solveMS, o.resp.ElapsedMS)
		models = append(models, o.resp.ModelSeconds)
		if hms, ok := s.handler.get(o.id); ok {
			queueMS = append(queueMS, hms-o.resp.ElapsedMS)
			clientMS = append(clientMS, o.latencyMS-hms)
		}
		rounds += o.resp.Rounds
		iters += o.resp.Iters
		if o.resp.PathCacheHit {
			pathHits++
		}
		if o.resp.DatasetCacheHit {
			dsHits++
		}
		if o.resp.Warm {
			warmFits++
			warmRounds += o.resp.Rounds
		}
	}
	n := len(okFits)
	if n == 0 {
		return fmt.Errorf("no fit completed")
	}
	fn := float64(n)
	// Process CPU per fit covers the server, the HTTP hop, JSON and
	// the clients alike.
	r.setE2E("solve_cpu_s", "s", loopCPU/float64(len(outs)))
	r.setE2E("model_s", "s", median(models))
	r.setE2E("alloc_mb", "MB", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(len(outs)))
	r.setLayer("fit_rps", "1/s", fn/wall)
	r.setLayer("fit_p50_ms", "ms", percentile(lat, 50))
	r.setLayer("fit_p95_ms", "ms", percentile(lat, 95))
	// A run is whole cycles of the same sweeps, but its fits range from
	// a few to hundreds of milliseconds with gaps between the clusters,
	// so the mean solve time per fit is the steadier figure here; the
	// median is serve.solve_ms_p50.
	r.setLayer("solve_s", "s", sum(solveMS)/1e3/fn)
	r.setLayer("host.steal_share", "ratio", steal)
	r.note("%d fits by %d clients in %.1f s (%d beyond p95); %d sweeps of %d lambdas over %d instances",
		n, clientCount(), wall, n-int(math.Ceil(0.95*fn)), (len(outs)+sweepLen-1)/sweepLen, sweepLen, serveInstances)

	r.setLayer("serve.solve_ms_p50", "ms", median(solveMS))
	r.setLayer("serve.queue_ms_p50", "ms", median(queueMS))
	r.setLayer("serve.path_hit_rate", "ratio", float64(pathHits)/fn)
	r.setLayer("serve.dataset_hit_rate", "ratio", float64(dsHits)/fn)
	r.setLayer("serve.warm_rounds_mean", "count", float64(warmRounds)/float64(max(warmFits, 1)))
	r.setLayer("load.client_ms_p50", "ms", median(clientMS))
	r.setLayer("solvercore.rounds", "count", float64(rounds)/fn)
	r.setLayer("solvercore.iters", "count", float64(iters)/fn)
	r.setLayer("solvercore.round_ms", "ms", sum(solveMS)/float64(max(rounds, 1)))
	r.setLayer("perf.model_over_wall", "ratio", median(models)/(median(solveMS)/1e3))
	setCommLayers(r, serveTotals.snapshot(), procs)
	return servePathDirect(cfg, r, okFits, sum(solveMS)/1e3/fn)
}

// servePathDirect solves each instance's mid-path fit outside the
// server, twice over: sequentially on one rank and at P=2 on the chan
// backend, for speedup_p2; in the traced run also on a traced chan
// world, for the bit-identity check and the trace overhead. It times
// data generation and step-size estimation for the instances the
// server prepared and, in the traced run, replays the kernels of the
// first fits the server ran.
func servePathDirect(cfg config, r *report, fits []serve.FitResponse, meanFitSec float64) error {
	info, err := data.Lookup(serveDataset)
	if err != nil {
		return err
	}
	var gens, lips []float64
	var prs []problem
	var fitOpts []solver.Options
	for i := 0; i < serveInstances; i++ {
		ref := instanceRef(cfg, i)
		t0 := time.Now()
		prob, err := data.LoadWith(ref.Name, ref.Samples, ref.Features, ref.Seed)
		if err != nil {
			return fmt.Errorf("generate data: %w", err)
		}
		t1 := time.Now()
		l := solver.SampledLipschitz(prob.X, prob.Y, 0.1, 8, 777)
		gens = append(gens, t1.Sub(t0).Seconds())
		lips = append(lips, time.Since(t1).Seconds())
		prs = append(prs, problem{prob: prob, gamma: solver.GammaFromLipschitz(l)})
		// The server's options for a cold fit at the path's geometric
		// middle; prob.Lambda is LambdaRatio times lambda_max.
		o := solver.Defaults()
		o.Lambda = math.Sqrt(ratioHi*ratioLo) / info.LambdaRatio * prob.Lambda
		o.Reg = prox.L1{Lambda: o.Lambda}
		o.Gamma = prs[i].gamma
		o.GradMapTol = gradMapTol
		o.EpochLen = 20
		o.MaxIter = 4000
		o.Seed = cfg.Seed
		fitOpts = append(fitOpts, o)
	}
	r.setLayer("data.gen_s", "s", sum(gens))
	r.setLayer("solver.lipschitz_s", "s", sum(lips))

	world := dist.NewWorld(procs, perf.Comet())
	tw := tracedWorld{World: world, totals: &commTotals{d: prs[0].prob.X.Rows}}
	var speedups, plain, traced []float64
	for n := 0; n < 2*serveInstances; n++ {
		pr, o := prs[n%serveInstances], fitOpts[n%serveInstances]
		seq := solveSelf(pr, o)
		u := solveOn(world, pr, o)
		r.attempted += 2
		seqOK := checkSolve(r, "direct 1-rank fit", seq, pr, o)
		if !checkSolve(r, "direct P=2 fit", u, pr, o) {
			continue
		}
		plain = append(plain, u.sec)
		if seqOK {
			speedups = append(speedups, seq.sec/u.sec)
		}
		if !cfg.Trace {
			continue
		}
		t := solveOn(tw, pr, o)
		r.attempted++
		if !checkSolve(r, "direct traced P=2 fit", t, pr, o) {
			continue
		}
		traced = append(traced, t.sec)
		if !sameResult(u.res, t.res) {
			r.problem("direct traced fit %d: W or FinalObj differ from the untraced fit", n)
		}
	}
	if len(speedups) == 0 {
		return fmt.Errorf("no direct fit passed its checks")
	}
	r.setLayer("speedup_p2", "ratio", median(speedups))
	if !cfg.Trace {
		return nil
	}
	r.setLayer("trace.overhead_ratio", "ratio", median(traced)/median(plain))
	pr, opts := prs[0], fitOpts[0]

	// Replay the kernel calls of the first fits at their rounds and
	// iterations, on instance 0 under one schedule, and report per-fit
	// means.
	var kt kernelTimes
	replayed := min(len(fits), 16)
	for _, f := range fits[:replayed] {
		o := opts
		o.Seed = cfg.Seed<<20 + 1
		one := replayKernels(pr.prob.X, pr.prob.Y, procs, o, &solver.Result{Rounds: f.Rounds, Iters: f.Iters})
		kt.sampleSec += one.sampleSec
		kt.draws += one.draws
		kt.gramSec += one.gramSec
		kt.gramFlops += one.gramFlops
		kt.mulvecSec += one.mulvecSec
	}
	per := float64(max(replayed, 1))
	r.setLayer("rng.sample_s", "s", kt.sampleSec/per)
	r.setLayer("rng.sample_us", "us", 1e6*kt.sampleSec/float64(max(kt.draws, 1)))
	r.setLayer("sparse.gram_s", "s", kt.gramSec/per)
	r.setLayer("sparse.gram_gflops", "GFLOP/s", float64(kt.gramFlops)/math.Max(kt.gramSec, 1e-9)/1e9)
	r.setLayer("mat.mulvec_s", "s", kt.mulvecSec/per)
	r.setLayer("solvercore.residual_s", "s",
		meanFitSec-(kt.sampleSec+kt.gramSec+kt.mulvecSec)/per-r.layer["dist.coll_s"].Value)
	return nil
}
