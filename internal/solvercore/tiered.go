package solvercore

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/dist"
)

// EFStream is one error-feedback residual stream for a tiered
// collective reduction. Every distinct reduction site (the stage-A
// gradient refresh, the KKT full-gradient scan) owns its own stream:
// residuals are a running carry of that site's quantization error, and
// mixing sites would inject one reduction's error into an unrelated
// payload.
//
// Reduce folds the carried residual into the payload, derives the new
// residual locally (resid = z - TierRound(z), deterministic and
// identical on every rank), ships the RAW folded payload through the
// tier's collective — quantization happens exactly once per hop inside
// the substrate — and writes the shared result back in place. Under
// TierF64 the round trips at full precision and the residual drains to
// zero through the fold: a stream that tightens from i8 to f64 near
// convergence automatically returns its carried error to the iterates.
type EFStream struct {
	resid   []float64
	scratch []float64
}

// Reduce sum-allreduces buf in place at (the effective floor of) tier
// t with error feedback. A length change reslices the payload (an
// active-set layout change), so the carried residual's coordinates are
// meaningless and the stream resets before folding.
func (s *EFStream) Reduce(c dist.Comm, buf []float64, t dist.Tier) {
	t = dist.EffectiveTier(t, len(buf))
	if t == dist.TierF64 && s.resid == nil {
		// Never-compressed stream: skip the fold entirely and keep the
		// plain collective's exact arithmetic (and golden bit-identity).
		c.Allreduce(buf, dist.OpSum)
		return
	}
	if len(s.resid) != len(buf) {
		s.resid = make([]float64, len(buf))
		s.scratch = make([]float64, len(buf))
	}
	z := s.scratch
	for i, v := range buf {
		z[i] = v + s.resid[i]
	}
	dist.TierRound(buf, z, t) // buf temporarily holds Q(z)
	for i := range s.resid {
		s.resid[i] = z[i] - buf[i]
	}
	copy(buf, dist.AllreduceSharedTier(c, z, t))
}

// Reset drops the carried residual (a working-set generation change).
func (s *EFStream) Reset() {
	for i := range s.resid {
		s.resid[i] = 0
	}
}

// TieredExchanger is the stage-C path behind Options.CompressTier: the
// batched Hessian allreduce ships through the tier selected per round
// by TierOf (a fixed tier, or the solver's auto policy), with per-rank
// error feedback and optional fault injection. Under a FaultPlan at
// fixed f64 it behaves as FaultExchanger: the retry/degrade/skip state
// machine below mirrors it decision for decision.
//
// Error feedback across faults: the residual update happens at
// prepare, but a round that ultimately fails (degrade to stale batch,
// or skip) never delivered the prepared contribution — carrying its
// quantization error forward would apply feedback for an exchange that
// did not happen. The exchanger therefore snapshots the residual at
// prepare and rolls it back when the round is lost; retries of the
// same round reuse the identical prepared payload, so a retry that
// eventually succeeds keeps the (single) residual update.
type TieredExchanger struct {
	// C is the communicator for reliable rounds; when FC is non-nil
	// the fallible attempt surface is used instead.
	C dist.Comm
	// TierOf picks the wire tier for an n-value round. It must be
	// deterministic from allreduced state so all ranks agree.
	TierOf func(n int) dist.Tier
	// FC, Rec, MaxRetries, Backoff configure fault handling, exactly
	// as in FaultExchanger. FC == nil means reliable rounds.
	FC         *dist.FaultyComm
	Rec        *Recorder
	MaxRetries int
	// Backoff is the attempt-1 retry delay; it doubles per attempt.
	Backoff float64

	resid     []float64
	prevResid []float64
	z         []float64
	q         []float64

	lastGood   []float64
	staleDepth int
}

// prepare folds the carried residual into local, updates the residual
// (snapshotting the previous one for rollback), and returns the raw
// folded payload to ship plus the round's effective tier. local is not
// modified.
func (e *TieredExchanger) prepare(local []float64) ([]float64, dist.Tier) {
	n := len(local)
	tier := dist.EffectiveTier(e.TierOf(n), n)
	if len(e.resid) != n {
		e.resid = make([]float64, n)
		e.prevResid = make([]float64, n)
		e.z = make([]float64, n)
		e.q = make([]float64, n)
	}
	copy(e.prevResid, e.resid)
	for i, v := range local {
		e.z[i] = v + e.resid[i]
	}
	dist.TierRound(e.q, e.z, tier)
	for i := range e.resid {
		e.resid[i] = e.z[i] - e.q[i]
	}
	return e.z, tier
}

// ResetResidual drops the carried residual. The solver calls it when
// the active working set changes generation: the packed batch layout
// changed meaning even if its length happens to match.
func (e *TieredExchanger) ResetResidual() {
	for i := range e.resid {
		e.resid[i] = 0
	}
}

// Exchange runs one blocking tiered round.
func (e *TieredExchanger) Exchange(local []float64) []float64 {
	z, tier := e.prepare(local)
	if e.FC == nil {
		return dist.AllreduceSharedTier(e.C, z, tier)
	}
	return e.resolve(func(a int) ([]float64, bool) {
		return e.FC.AttemptAllreduceSharedTier(z, a, tier)
	})
}

// Post prepares and posts the tiered allreduce nonblocking. The
// prepared buffer is owned by the exchanger and stays untouched until
// Resolve; the caller's local batch is free immediately.
func (e *TieredExchanger) Post(local []float64) Pending {
	z, tier := e.prepare(local)
	if e.FC == nil {
		return Pending{req: dist.IAllreduceSharedTier(e.C, z, tier), buf: z, tier: tier}
	}
	return Pending{att: e.FC.IAttemptAllreduceSharedTier(z, 0, tier), buf: z, tier: tier}
}

// Resolve blocks on the posted round, running the retry policy under
// faults. Retries re-ship the already-prepared payload — the residual
// was updated once at prepare and must not compound per attempt.
func (e *TieredExchanger) Resolve(p Pending) []float64 {
	if e.FC == nil {
		return p.req.Wait()
	}
	return e.resolve(func(a int) ([]float64, bool) {
		if a == 0 {
			return p.att.Wait()
		}
		return e.FC.AttemptAllreduceSharedTier(p.buf, a, p.tier)
	})
}

// resolve drives the retry/degrade/skip state machine of one fallible
// tiered round — FaultExchanger.resolve plus the error-feedback
// rollback on lost rounds.
func (e *TieredExchanger) resolve(attempt func(a int) ([]float64, bool)) []float64 {
	cost := e.FC.Cost()
	round := e.FC.Round()
	for a := 0; a <= e.MaxRetries; a++ {
		if a > 0 {
			// Exponential backoff before each retry, charged as waiting.
			cost.AddStall(e.Backoff * float64(int64(1)<<uint(a-1)))
			e.Rec.Faults.Retries++
		}
		res, ok := attempt(a)
		if !ok {
			continue
		}
		e.Rec.DrainFaultEvents(e.FC)
		e.FC.EndRound()
		if a > 0 {
			e.Rec.RecordRecovery("retry-ok", round, fmt.Sprintf("attempt %d succeeded", a))
		}
		e.lastGood = res
		e.staleDepth = 0
		return res
	}
	// The round is lost: the prepared contribution never landed, so the
	// residual update it carried must not survive into the next round.
	copy(e.resid, e.prevResid)
	e.Rec.Faults.FailedRounds++
	e.Rec.DrainFaultEvents(e.FC)
	e.FC.EndRound()
	if e.lastGood != nil {
		e.Rec.Faults.DegradedRounds++
		e.staleDepth++
		e.Rec.RecordRecovery("degrade", round,
			fmt.Sprintf("stale batch reuse x%d (S raised)", e.staleDepth))
		return e.lastGood
	}
	e.Rec.Faults.SkippedRounds++
	e.Rec.RecordRecovery("skip", round, "no last-good batch yet")
	return nil
}
