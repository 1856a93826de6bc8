package dist

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// Tier selects the wire precision of a tiered collective. The ladder
// is f64 (the full-precision default) > f32 (PR 8's error-feedback
// compression) > i8 (the chunked dithered quantizer of wirei8.go).
// Every tier's arithmetic is fixed across backends — contributions
// quantized with the tier's rounding, summed in rank order in float64
// at the hub, sum quantized once — so results are bit-identical on
// chan, tcp and self whether or not bytes actually move.
type Tier int

// Compression tiers, finest first.
const (
	TierF64 Tier = iota
	TierF32
	TierI8
)

// String returns the CLI spelling of the tier.
func (t Tier) String() string {
	switch t {
	case TierF64:
		return "f64"
	case TierF32:
		return "f32"
	case TierI8:
		return "i8"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ParseTier maps a fixed-tier spelling to a Tier. "", "off" and "f64"
// all select the uncompressed tier; "auto" is a solver-level policy,
// not a wire tier, and is rejected here.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "off", "f64":
		return TierF64, nil
	case "f32":
		return TierF32, nil
	case "i8":
		return TierI8, nil
	}
	return TierF64, fmt.Errorf("dist: unknown compression tier %q (want off, f32 or i8)", s)
}

// MinI8Payload is the smallest payload (in values) the i8 tier applies
// to: shorter payloads — the 1-word objective reduction above all —
// would see up to ~0.4%% relative quantization error on a single
// scalar, far beyond the 1e-5 agreement the tier promises, while the
// chunk-scale overhead erases the byte savings anyway. EffectiveTier
// floors such payloads to f32 (~1e-7 relative error).
const MinI8Payload = 32

// EffectiveTier returns the tier actually used for an n-value payload:
// i8 requests on payloads shorter than MinI8Payload fall back to f32.
func EffectiveTier(t Tier, n int) Tier {
	if t == TierI8 && n < MinI8Payload {
		return TierF32
	}
	return t
}

// TierRound writes into dst the exact values src takes after one trip
// through the tier's wire: the identity for f64, F32Round per element
// for f32, I8RoundSlice for i8. dst and src may alias. Callers use it
// to derive error-feedback residuals locally (resid = z - Round(z)),
// which is deterministic and identical on every rank.
func TierRound(dst, src []float64, t Tier) {
	switch t {
	case TierF32:
		for i, v := range src {
			dst[i] = F32Round(v)
		}
	case TierI8:
		I8RoundSlice(dst, src)
	default:
		copy(dst, src)
	}
}

// F32Allreducer is the optional communicator capability behind the f32
// compression tier. The semantics are fixed across backends: every
// rank's contribution is rounded to float32 (F32Round), the rounded
// contributions are summed in rank order in float64, and the sum is
// rounded to float32 before it is shared — so the result is
// bit-identical on every transport, whether or not bytes actually
// moved. Cost is charged at ceil(n/2) 64-bit words per tree level
// (AllreduceCostF32). Implemented by the chan, tcp and self backends
// and delegated by the fault-injecting wrapper.
type F32Allreducer interface {
	// AllreduceSharedF32 is AllreduceShared over the compressed wire.
	AllreduceSharedF32(local []float64) []float64
	// IAllreduceSharedF32 posts the compressed allreduce nonblocking.
	IAllreduceSharedF32(local []float64) *Request
}

// I8Allreducer is the optional communicator capability behind the int8
// dithered tier. Contributions are passed RAW (unquantized): the
// substrate quantizes each contribution exactly once (the codec on the
// tcp wire, I8RoundSlice in process — the i8 quantizer is not
// idempotent, so quantization must happen once per hop), sums the
// quantized contributions in rank order in float64 and quantizes the
// sum once for the downlink. Cost is charged at perf.I8Words(n) words
// per tree level (AllreduceCostI8).
type I8Allreducer interface {
	// AllreduceSharedI8 is AllreduceShared over the int8 dithered wire.
	AllreduceSharedI8(local []float64) []float64
	// IAllreduceSharedI8 posts the int8 allreduce nonblocking.
	IAllreduceSharedI8(local []float64) *Request
}

// SupportsTier reports whether communicator c can run tiered
// collectives at tier t, returning a descriptive error when it cannot.
// Wrappers whose capability depends on what they wrap (FaultyComm)
// expose their own SupportsTier method, consulted first: their tiered
// methods exist unconditionally, so a bare type assertion on the
// wrapper would claim capability the inner transport may lack.
func SupportsTier(c Comm, t Tier) error {
	if d, ok := c.(interface{ SupportsTier(Tier) error }); ok {
		return d.SupportsTier(t)
	}
	switch t {
	case TierF32:
		if _, ok := c.(F32Allreducer); !ok {
			return fmt.Errorf("dist: transport does not implement the f32 compressed collective")
		}
	case TierI8:
		if _, ok := c.(I8Allreducer); !ok {
			return fmt.Errorf("dist: transport does not implement the i8 compressed collective")
		}
	}
	return nil
}

// AllreduceSharedTier dispatches a shared sum-allreduce of local at
// tier t. The f64 tier is the plain AllreduceShared; the compressed
// tiers require the matching capability (SupportsTier).
func AllreduceSharedTier(c Comm, local []float64, t Tier) []float64 {
	switch t {
	case TierF32:
		return c.(F32Allreducer).AllreduceSharedF32(local)
	case TierI8:
		return c.(I8Allreducer).AllreduceSharedI8(local)
	}
	return c.AllreduceShared(local)
}

// IAllreduceSharedTier posts the tier-t shared allreduce nonblocking.
func IAllreduceSharedTier(c Comm, local []float64, t Tier) *Request {
	switch t {
	case TierF32:
		return c.(F32Allreducer).IAllreduceSharedF32(local)
	case TierI8:
		return c.(I8Allreducer).IAllreduceSharedI8(local)
	}
	return c.IAllreduceShared(local)
}

// AllreduceScalarSumTier sum-reduces one scalar at (the effective
// floor of) tier t. A 1-value payload always floors below i8
// (EffectiveTier), so the worst case is the ~1e-7 relative error of a
// float32 rounding — the objective/eval reductions tolerate that, a
// 0.4%% int8 step they would not.
func AllreduceScalarSumTier(c Comm, x float64, t Tier) float64 {
	buf := [1]float64{x}
	AllreduceSumTier(c, buf[:], t)
	return buf[0]
}

// AllreduceSumTier sum-reduces buf in place at (the effective floor
// of) tier t. At f64 it is the in-place Allreduce, so a caller that
// owns buf allocates nothing.
func AllreduceSumTier(c Comm, buf []float64, t Tier) {
	t = EffectiveTier(t, len(buf))
	if t == TierF64 {
		c.Allreduce(buf, OpSum)
		return
	}
	copy(buf, AllreduceSharedTier(c, buf, t))
}

// AllreduceCostTier returns the per-rank tree cost of an n-value
// allreduce at tier t on p ranks.
func AllreduceCostTier(p, n int, t Tier) perf.Cost {
	switch t {
	case TierF32:
		return AllreduceCostF32(p, n)
	case TierI8:
		return AllreduceCostI8(p, n)
	}
	return AllreduceCost(p, n)
}

// TierSeconds prices the tier-t allreduce of n values on p ranks under
// machine m, using the per-tier fitted betas (perf.Machine.F32Beta /
// I8Beta) so the auto policy can compare tiers on modeled time rather
// than raw words. It is a pure function of its arguments: every rank
// holding the same (broadcast) machine computes the same ranking.
func TierSeconds(m perf.Machine, p, n int, t Tier) float64 {
	lg := float64(perf.Log2Ceil(p))
	beta := m.Beta
	words := float64(n)
	switch t {
	case TierF32:
		beta = m.F32Beta()
		words = float64(perf.F32Words(n))
	case TierI8:
		beta = m.I8Beta()
		words = float64(perf.I8Words(n))
	}
	return lg * (m.Alpha + beta*words)
}
