package solver

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// LocalData is one rank's column (sample) block of the global problem,
// the Figure 1 data distribution: X is partitioned column-wise, y
// row-wise. It moved to solvercore with the shared runtime.
type LocalData = solvercore.LocalData

// Partition returns rank's contiguous column block of (x, y) for a
// world of the given size.
var Partition = solvercore.Partition

// RCSFISTA runs Algorithm 5 on communicator c with this rank's local
// data. Every rank must call it with identical opts. The returned
// Result carries this rank's cost; rank 0's Result carries the trace.
//
// Structure per communication round (Figure 1):
//
//	stage A: draw k sample index sets from the shared seed (no comm);
//	stage B: compute k local partial (H_j, R_j) Gram instances,
//	         concurrently across slots (disjoint buffer regions);
//	stage C: ONE allreduce of the batch — k*(d(d+1)/2 + d) words in the
//	         default packed symmetric format, k*(d^2 + d) dense;
//	stage D: k*S local solution updates, S per Hessian instance.
//
// SFISTA is the k=1, S=1 special case; deterministic distributed FISTA
// is additionally b=1.
func RCSFISTA(c dist.Comm, local LocalData, opts Options) (*Result, error) {
	return RCSFISTAContext(context.Background(), c, local, opts)
}

// RCSFISTAContext is RCSFISTA under a context. Cancellation is
// cooperative and collective: the ranks agree on it at a round
// boundary (all leave at the same round, no collective left in
// flight), so it takes effect within one round. On cancellation both
// return values are non-nil: the Result is a well-formed partial state
// — last checkpointed objective, counters, trace so far — alongside
// the context's error.
func RCSFISTAContext(ctx context.Context, c dist.Comm, local LocalData, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.UseDeltaForm && opts.S != 1 {
		return nil, fmt.Errorf("solver: delta-form updates are implemented for S=1 only (got S=%d)", opts.S)
	}
	if local.X == nil || local.X.Cols != len(local.Y) {
		return nil, fmt.Errorf("solver: inconsistent local data")
	}
	if gl, ok := opts.Reg.(prox.GroupL2); ok {
		if err := gl.Check(local.X.Rows); err != nil {
			return nil, err
		}
	}
	tiers, err := parseTierConfig(opts.CompressTier)
	if err != nil {
		return nil, err
	}
	if err := validateTierSupport(c, tiers); err != nil {
		return nil, err
	}

	e := newEngine(c, local, opts)
	e.tiers = tiers
	e.gradMapNorm = gradMapNormInit()
	e.tierBestObj = math.Inf(1)
	e.tierCap = dist.TierI8
	var pass solvercore.InnerPass = e
	if opts.UseDeltaForm {
		pass = newDeltaPass(e)
	}
	if opts.VarianceReduced {
		e.refreshSnapshot()
	}
	if opts.W0 != nil && e.gradMapStop {
		// Warm-start fast path: the initial snapshot refresh evaluated
		// the exact gradient mapping at W0 and it already satisfies
		// GradMapTol, so the solve finishes before its first
		// communication round — what makes neighboring-lambda warm
		// starts in the serving layer nearly free. Cold starts (W0 ==
		// nil) never take this path; the gradient mapping is a shared
		// pure function of allreduced state, so all ranks exit together.
		e.checkpoint()
		e.rec.Converged = true
		return e.finish(), nil
	}
	if opts.ActiveSet {
		e.initActiveSet()
	}
	e.checkpoint()
	spec := solvercore.Spec{
		Ctx:      ctx,
		Comm:     e.c,
		Rec:      e.rec,
		Fill:     e,
		Exchange: e.exchanger(),
		Pass:     pass,
		Stop:     e,
		Pipeline: opts.Pipeline,
		CommCost: dist.AllreduceCost(e.c.Size(), e.BatchLen()),
	}
	if e.tiers.on {
		n := e.BatchLen()
		spec.CommCost = dist.AllreduceCostTier(e.c.Size(), n, e.tierAt(n))
	}
	if opts.ActiveSet {
		// The batch length moves with the working set; price each
		// overlapped collective at its actual in-flight length (and, under
		// compression, at the tier the engine picks for it). Left nil on
		// the dense path so golden modeled costs are untouched.
		spec.CommCostOf = func(n int) perf.Cost {
			if e.tiers.on {
				return dist.AllreduceCostTier(e.c.Size(), n, e.tierAt(n))
			}
			return dist.AllreduceCost(e.c.Size(), n)
		}
	}
	err = solvercore.Loop(spec)
	if err == nil && !e.rec.Converged && e.sinceEval != 0 {
		e.rec.Converged = e.checkpoint()
	}
	return e.finish(), err
}

// SFISTA runs the k=1, S=1 stochastic variance-reduced algorithm
// (Algorithms 3/4) — RC-SFISTA without overlap or reuse.
func SFISTA(c dist.Comm, local LocalData, opts Options) (*Result, error) {
	return SFISTAContext(context.Background(), c, local, opts)
}

// SFISTAContext is SFISTA under a context (see RCSFISTAContext).
func SFISTAContext(ctx context.Context, c dist.Comm, local LocalData, opts Options) (*Result, error) {
	opts.K, opts.S = 1, 1
	if opts.TraceName == "" {
		opts.TraceName = "sfista"
	}
	return RCSFISTAContext(ctx, c, local, opts)
}

// engine holds the run state of one rank. It plugs into
// solvercore.Loop as the BatchFiller (stages A and B), the direct-form
// InnerPass (stage D), and the StopPolicy; stage C is a solvercore
// Exchanger picked by exchanger(). Bookkeeping lives in rec.
type engine struct {
	c     dist.Comm
	local LocalData
	opts  Options
	rec   *solvercore.Recorder

	d, m, mbar int
	gamma      float64
	reg        prox.Operator
	// scr is reg's screening side; non-nil whenever reg implements
	// prox.Screener (Validate guarantees it under ActiveSet).
	scr prox.Screener
	src rng.Source
	// slotCols[j] holds this rank's stage-A columns of batch slot j,
	// reused across rounds; the k slots fill concurrently, each into
	// its own buffer.
	slotCols [][]int

	// Batched Gram wire format: k slots of (hLen Hessian + d R). hLen
	// is d(d+1)/2 in the default packed symmetric format, d^2 dense.
	// The buffers themselves belong to the Loop.
	hLen    int
	slotLen int
	packed  bool

	wPrev, wCurr, v, grad, tmp []float64
	scratch                    []float64 // length mLocal
	t                          float64
	hIdx                       int
	sinceSnap, sinceEval       int

	// xtw computes the X^T w halves of evaluate, refreshSnapshot and
	// the KKT gradient scan over the iterate's support only; loss is
	// evaluate's allreduce buffer, so a warm evaluate allocates nothing.
	xtw  *sparse.SupportPass
	loss [1]float64

	// Variance reduction state.
	wSnap    []float64
	fullGrad []float64

	fc          *dist.FaultyComm
	gradMapStop bool

	// Tiered compression state (Options.CompressTier, see tiering.go).
	// gradEF/kktEF are the per-site error-feedback residual streams of
	// the stage-A gradient refresh and the KKT full-gradient scan;
	// gradMapNorm is the auto policy's tightening signal, derived from
	// allreduced state so all ranks agree.
	tiers       tierConfig
	gradMapNorm float64
	gradEF      solvercore.EFStream
	kktEF       solvercore.EFStream
	// Objective-stagnation ratchet of the auto policy (tierProgress):
	// best evaluated objective, evaluations since it improved, and the
	// monotone cap on the loosest selectable rung.
	tierBestObj float64
	tierStall   int
	tierCap     dist.Tier

	// as is the dynamic-screening state (Options.ActiveSet); nil runs
	// the dense path bit-identically to the goldens.
	as *activeState
	// exch is the one stage-C exchanger instance of the run. It must be
	// a singleton: a FaultExchanger carries the last-good batch across
	// rounds, and the re-expansion redo exchange shares it with the Loop.
	exch solvercore.Exchanger
}

func newEngine(c dist.Comm, local LocalData, opts Options) *engine {
	d := local.X.Rows
	m := local.MGlobal
	mbar := int(opts.B * float64(m))
	if mbar < 1 {
		mbar = 1
	}
	if mbar > m {
		mbar = m
	}
	name := opts.TraceName
	if name == "" {
		name = fmt.Sprintf("rcsfista-k%d-s%d", opts.K, opts.S)
	}
	hLen := d * d
	if opts.PackedHessian {
		hLen = mat.PackedLen(d)
	}
	e := &engine{
		c: c, local: local, opts: opts,
		d: d, m: m, mbar: mbar,
		gamma:   opts.Gamma,
		reg:     opts.Reg,
		src:     rng.NewSource(opts.Seed),
		hLen:    hLen,
		slotLen: hLen + d,
		packed:  opts.PackedHessian,
		wPrev:   make([]float64, d),
		wCurr:   make([]float64, d),
		v:       make([]float64, d),
		grad:    make([]float64, d),
		tmp:     make([]float64, d),
		scratch: make([]float64, local.X.Cols),
		xtw:     sparse.NewSupportPass(local.X),
		t:       1,

		slotCols: make([][]int, opts.K),
	}
	if s, ok := opts.Reg.(prox.Screener); ok {
		e.scr = s
	}
	if opts.W0 != nil {
		if len(opts.W0) != d {
			panic("solver: W0 length mismatch")
		}
		copy(e.wCurr, opts.W0)
		copy(e.wPrev, opts.W0)
	}
	if opts.VarianceReduced {
		e.wSnap = make([]float64, d)
		e.fullGrad = make([]float64, d)
	}
	if opts.Faults != nil {
		// Route everything through the fault-injecting wrapper; only the
		// round-indexed batch allreduce (AttemptAllreduceShared) is
		// fallible, the rest passes through.
		e.fc = dist.NewFaultyComm(c, opts.Faults, opts.RoundTimeout)
		e.c = e.fc
	}
	e.rec = solvercore.NewRecorder(name, e.c.Rank(), e.c.Cost(), e.c.Machine())
	e.rec.Tol = opts.Tol
	e.rec.FStar = opts.FStar
	return e
}

// BatchLen is the wire length of one k-slot batch. Under ActiveSet it
// shrinks with the current working set: k * (|A|(|A|+1)/2 + d) words.
func (e *engine) BatchLen() int {
	if e.as != nil {
		return e.opts.K * (mat.PackedLen(len(e.as.act)) + e.d)
	}
	return e.opts.K * e.slotLen
}

// Fill computes the local partial (H_j, R_j) instances of slots
// hIdx..hIdx+k-1 (stages A and B) into buf and advances hIdx. The k
// slots are computed by a bounded worker pool; each worker charges a
// private perf.Cost that is merged in slot order after the join, so
// accounting is deterministic regardless of scheduling. The merged
// fill cost is charged to the rank and also returned, so the pipelined
// Loop can compare the segment against the in-flight collective for
// overlap accounting. Pure local compute: no collectives, safe to run
// while a nonblocking allreduce is in flight.
func (e *engine) Fill(buf []float64) perf.Cost {
	k := e.opts.K
	base := e.hIdx
	if e.as != nil {
		e.as.pushFill(base)
		e.activeView()
	}
	mat.Zero(buf)
	var fill perf.Cost
	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	if workers <= 1 {
		for j := 0; j < k; j++ {
			e.fillSlotAt(j, base, buf, &fill)
		}
	} else {
		costs := make([]perf.Cost, k)
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for j := 0; j < k; j++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(j int) {
				defer wg.Done()
				e.fillSlotAt(j, base, buf, &costs[j])
				<-sem
			}(j)
		}
		wg.Wait()
		for j := 0; j < k; j++ {
			fill.Add(costs[j])
		}
	}
	e.hIdx += k
	e.c.Cost().Add(fill)
	return fill
}

// slotView interprets slot j of an (allreduced) batch buffer as its
// Hessian operator and R vector, in whichever wire format the engine is
// configured for.
func (e *engine) slotView(batch []float64, j int) (Hessian, []float64) {
	slot := batch[j*e.slotLen : (j+1)*e.slotLen]
	if e.packed {
		return mat.SymPackedOf(e.d, slot[:e.hLen]), slot[e.hLen:]
	}
	return mat.DenseOf(e.d, e.d, slot[:e.hLen]), slot[e.hLen:]
}

// update performs one solution update (Algorithm 5 lines 9-15 for a
// single s) with Hessian slot (h, r).
func (e *engine) update(h Hessian, r []float64) {
	cost := e.c.Cost()
	tNext := (1 + math.Sqrt(1+4*e.t*e.t)) / 2
	mu := (e.t - 1) / tNext
	e.t = tNext
	cost.AddFlops(6)

	// v = wCurr + mu*(wCurr - wPrev)
	mat.Sub(e.v, e.wCurr, e.wPrev, cost)
	mat.AddScaled(e.v, e.wCurr, mu, e.v, cost)

	if e.opts.VarianceReduced {
		// g = H (v - wSnap) + fullGrad  (Eq. 9 for least squares).
		mat.Sub(e.tmp, e.v, e.wSnap, cost)
		h.MulVec(e.grad, e.tmp, cost)
		mat.Axpy(1, e.fullGrad, e.grad, cost)
	} else {
		// g = H v - R  (Algorithm 4 line 8).
		h.MulVec(e.grad, e.v, cost)
		mat.Axpy(-1, r, e.grad, cost)
	}

	// theta = v - gamma*g ; w = SoftThreshold(theta, lambda*gamma).
	copy(e.wPrev, e.wCurr)
	mat.AddScaled(e.wCurr, e.v, -e.gamma, e.grad, cost)
	e.reg.Apply(e.wCurr, e.wCurr, e.gamma, cost)
	e.rec.Iter++
}

// Done gates round starts: the iteration budget is spent.
func (e *engine) Done() bool { return e.rec.Iter >= e.opts.MaxIter }

// MoreAfterNext predicts whether another round follows the in-flight
// one on the normal path — whether a speculative fill can overlap it.
// On a fault-skip the prediction errs short (Iter does not advance);
// on a convergence stop it errs long and the fill is wasted.
func (e *engine) MoreAfterNext() bool {
	return e.rec.Iter+e.opts.K*e.opts.S < e.opts.MaxIter
}

// OnSkip caps fault-skipped rounds so a never-healing network still
// terminates. Under ActiveSet the lost round's fill record is retired
// so the FIFO stays aligned with the exchanges.
func (e *engine) OnSkip() bool {
	if e.as != nil {
		e.as.popFill()
	}
	return e.rec.Faults.SkippedRounds > e.opts.MaxIter
}

// Process runs stage D on one allreduced batch: k*S solution updates
// with variance-reduction refreshes and trace checkpoints interleaved.
// It reports true when the outer loop must stop (convergence or
// MaxIter). Shared verbatim by the blocking and pipelined Loop, so
// their update sequences are identical statement for statement — the
// foundation of the bit-identity guarantee.
func (e *engine) Process(shared []float64) bool {
	if e.as != nil {
		return e.processActive(shared)
	}
	opts := e.opts
	for j := 0; j < opts.K; j++ {
		h, r := e.slotView(shared, j)
		for s := 0; s < opts.S; s++ {
			e.update(h, r)
			e.sinceSnap++
			e.sinceEval++
			if opts.VarianceReduced && e.sinceSnap >= opts.EpochLen {
				e.refreshSnapshot()
				e.sinceSnap = 0
				if e.gradMapStop {
					e.checkpoint()
					e.rec.Converged = true
					return true
				}
			}
			if e.sinceEval >= opts.EvalEvery {
				e.sinceEval = 0
				if e.checkpoint() {
					e.rec.Converged = true
					return true
				}
			}
			if e.rec.Iter >= opts.MaxIter {
				return true
			}
		}
	}
	return false
}

// finish packages the result.
func (e *engine) finish() *Result {
	res := e.rec.Finish(mat.Clone(e.wCurr))
	res.Support = e.xtw.Stats()
	return res
}
