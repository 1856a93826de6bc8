package sparse

import "github.com/hpcgo/rcsfista/internal/perf"

// SupportPass computes t = A^T w for a fixed matrix A and a sparse w,
// reading only the rows of a grow-only set U ⊇ supp(w). The rows of U
// are kept in an ActiveView whose positions are the row indices
// themselves, so the pass gathers w directly; the view is rebuilt only
// when a non-zero of w falls outside U, and U never shrinks.
//
// The result equals CSC.MulVecT bit for bit on finite data. Every
// skipped term is v·(±0) = ±0; the accumulator starts at +0 and so can
// never become −0, and adding ±0 to +0 or to a non-zero value leaves it
// unchanged. The kept terms are added in the same increasing row order.
// Two cases take the plain pass instead. A product whose grown view
// would hold more than half of A's stored entries runs CSC.MulVecT and
// leaves U as it was, so a later sparser w can still use the view. An
// A with a non-finite stored value (v·0 is then NaN, not ±0) runs
// CSC.MulVecT on every call; A is checked once, when the pass is made.
// The flop charge is CSC.MulVecT's 2·nnz either way, so the cost model
// is blind to which pass ran.
//
// A must not change while the pass is in use. A SupportPass is not
// safe for concurrent use.
type SupportPass struct {
	a      *CSC
	rowNnz []int // stored entries per row of A
	pos    []int // pos[r] = r for r in U, -1 otherwise
	kept   int   // stored entries in the rows of U
	view   ActiveView
	built  bool // view holds the rows of U
	plain  bool // A holds a non-finite value: every call runs CSC.MulVecT
	stats  SupportStats
}

// SupportStats counts what a SupportPass did: Rebuilds is the number of
// view builds, Fallbacks the number of products served by the plain
// full pass.
type SupportStats struct {
	Rebuilds, Fallbacks int
}

// NewSupportPass returns a support pass over a with U empty.
func NewSupportPass(a *CSC) *SupportPass {
	s := &SupportPass{a: a, rowNnz: make([]int, a.Rows), pos: make([]int, a.Rows)}
	for i := range s.pos {
		s.pos[i] = -1
	}
	for k, r := range a.RowIdx {
		s.rowNnz[r]++
		// v - v is 0 for finite v and NaN for ±Inf or NaN.
		if v := a.Val[k]; v-v != 0 {
			s.plain = true
		}
	}
	return s
}

// MulVecT computes t = A^T w with CSC.MulVecT's contract: t has length
// Cols, w length Rows, and 2·nnz flops are charged to c.
func (s *SupportPass) MulVecT(t, w []float64, c *perf.Cost) {
	a := s.a
	if len(t) != a.Cols || len(w) != a.Rows {
		panic("sparse: SupportPass MulVecT dimension mismatch")
	}
	if s.plain || !s.cover(w) {
		s.stats.Fallbacks++
		a.MulVecT(t, w, c)
		return
	}
	s.view.mulVecT(t, w)
	c.AddFlops(int64(2 * a.Nnz()))
}

// Stats returns the pass's counters so far.
func (s *SupportPass) Stats() SupportStats { return s.stats }

// cover makes the view hold every non-zero of w, adding supp(w) to U
// and rebuilding when a non-zero falls outside it. It reports false,
// leaving U unchanged, when the grown view would hold more than half
// of A's stored entries.
func (s *SupportPass) cover(w []float64) bool {
	kept, grow := s.kept, !s.built
	for i, v := range w {
		if v != 0 && s.pos[i] < 0 {
			kept += s.rowNnz[i]
			grow = true
		}
	}
	if !grow {
		return true
	}
	if 2*kept > s.a.Nnz() {
		return false
	}
	for i, v := range w {
		if v != 0 {
			s.pos[i] = i
		}
	}
	s.kept = kept
	s.view.fill(s.a, s.pos, kept)
	s.built = true
	s.stats.Rebuilds++
	return true
}
