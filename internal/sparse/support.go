package sparse

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// SupportPass computes t = A^T w for a fixed matrix A and a sparse w,
// reading only the rows of supp(w). It keeps a grow-only row-major
// store of A: a row enters the first time it is in supp(w), with its
// column indices (int32) and values sized exactly from the row's entry
// count, and all rows entering in one call are extracted in one scan
// of A. A product clears t and streams the stored rows of supp(w) in
// ascending row order.
//
// The result equals CSC.MulVecT bit for bit on finite A. Each t_j gets
// its non-skipped terms in the same increasing row order as the column
// pass. Every skipped term is v·(±0) = ±0; the accumulator starts at +0
// and so can never become −0, and adding ±0 to +0 or to a non-zero
// value leaves it unchanged. An A with a non-finite stored value (v·0
// is then NaN, not ±0), or with more columns than an int32 indexes,
// runs CSC.MulVecT on every call; A is checked once, when the pass is
// made. The flop charge is CSC.MulVecT's 2·nnz either way, so the cost
// model is blind to which pass ran.
//
// The store holds at most one row-major copy of A. A must not change
// while the pass is in use. A SupportPass is not safe for concurrent
// use.
type SupportPass struct {
	a      *CSC
	rowNnz []int       // stored entries per row of A
	cols   [][]int32   // cols[r] = row r's column indices; nil until r enters
	vals   [][]float64 // vals[r] = row r's values, aligned with cols[r]
	plain  bool        // every call runs CSC.MulVecT
	stats  SupportStats
}

// SupportStats counts what a SupportPass did: Rebuilds is the number of
// scans of A that extracted rows into the store, Fallbacks the number
// of products served by the plain CSC.MulVecT pass.
type SupportStats struct {
	Rebuilds, Fallbacks int
}

// NewSupportPass returns a support pass over a with an empty store.
func NewSupportPass(a *CSC) *SupportPass {
	s := &SupportPass{
		a:      a,
		rowNnz: make([]int, a.Rows),
		cols:   make([][]int32, a.Rows),
		vals:   make([][]float64, a.Rows),
		plain:  a.Cols > math.MaxInt32,
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
	if s.plain {
		s.stats.Fallbacks++
		a.MulVecT(t, w, c)
		return
	}
	s.extract(w)
	clear(t)
	for r, wr := range w {
		if wr == 0 {
			continue
		}
		vals := s.vals[r]
		cols := s.cols[r][:len(vals)]
		for k, j := range cols {
			t[j] += vals[k] * wr
		}
	}
	c.AddFlops(int64(2 * a.Nnz()))
}

// Stats returns the pass's counters so far.
func (s *SupportPass) Stats() SupportStats { return s.stats }

// extract adds every row of supp(w) that is not yet stored, in one scan
// of A. An entering row is the only kind whose length is below its
// capacity during the scan; a row outside the store has capacity 0.
func (s *SupportPass) extract(w []float64) {
	enter := false
	for r, wr := range w {
		if wr != 0 && s.cols[r] == nil {
			n := s.rowNnz[r]
			s.cols[r], s.vals[r] = make([]int32, 0, n), make([]float64, 0, n)
			enter = true
		}
	}
	if !enter {
		return
	}
	a := s.a
	for j := 0; j < a.Cols; j++ {
		rows, vals := a.Col(j)
		for k, r := range rows {
			if c := s.cols[r]; len(c) < cap(c) {
				s.cols[r] = append(c, int32(j))
				s.vals[r] = append(s.vals[r], vals[k])
			}
		}
	}
	s.stats.Rebuilds++
}
