package solver

// Per-slot stage plumbing for the engine: the stage-C Exchanger
// selection (plain / compressed / faulty) and the stage-A/B sampled
// Gram fill of a single batch slot. The round loop and engine state
// live in rcsfista.go.

import (
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// exchanger picks stage C: the tiered error-feedback path under
// CompressTier (which handles faults itself, rolling residuals back on
// lost rounds), the plain allreduce on the reliable uncompressed path,
// the retry/degrade/skip machine under an uncompressed FaultPlan.
func (e *engine) exchanger() solvercore.Exchanger {
	if e.exch == nil {
		if e.tiers.on {
			e.exch = &solvercore.TieredExchanger{
				C:          e.c,
				TierOf:     e.tierAt,
				FC:         e.fc,
				Rec:        e.rec,
				MaxRetries: e.opts.MaxRetries,
				Backoff:    e.opts.RetryBackoff,
			}
		} else if e.fc == nil {
			e.exch = solvercore.AllreduceExchanger{C: e.c}
		} else {
			e.exch = &solvercore.FaultExchanger{
				FC:         e.fc,
				Rec:        e.rec,
				MaxRetries: e.opts.MaxRetries,
				Backoff:    e.opts.RetryBackoff,
			}
		}
	}
	return e.exch
}

// slotSample is stage A for batch slot j (global Hessian index h):
// this rank's local columns of the slot's shared sample set, drawn
// into the slot's own buffer. The set is a pure function of (seed, h),
// so every rank agrees on it without communication.
func (e *engine) slotSample(j, h int) []int {
	lo, hi := e.local.ColRange()
	e.slotCols[j] = solvercore.StreamSampler{
		Src: e.src, Epoch: 1, N: e.m, Draw: e.mbar, FullWhenSaturated: true,
	}.SampleRange(h, lo, hi, e.slotCols[j])
	return e.slotCols[j]
}

// fillSlotAt computes the local partial (H, R) Gram instance of batch
// slot j (global Hessian index base+j) into buf, charging flops to
// cost. Stage A (sampling) is a pure function of (seed, base+j) and
// stage B writes only slot j's region of buf, so distinct slots are
// safe to fill concurrently. Under ActiveSet the slot holds the reduced
// |A| x |A| packed Gram plus the full-length R.
func (e *engine) fillSlotAt(j, base int, buf []float64, cost *perf.Cost) {
	if e.as != nil {
		e.fillSlotActive(j, base, buf, e.as.act, e.as.pos, &e.as.view, cost)
		return
	}
	cols := e.slotSample(j, base+j)
	slot := buf[j*e.slotLen : (j+1)*e.slotLen]
	scale := 1 / float64(e.mbar)
	if e.packed {
		h := mat.SymPackedOf(e.d, slot[:e.hLen])
		sparse.SampledGramPacked(e.local.X, h, slot[e.hLen:], e.local.Y, cols, scale, cost)
	} else {
		h := mat.DenseOf(e.d, e.d, slot[:e.hLen])
		sparse.SampledGram(e.local.X, h, slot[e.hLen:], e.local.Y, cols, scale, cost)
	}
}
