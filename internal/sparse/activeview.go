package sparse

import (
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// ActiveView is a reusable row-filtered snapshot of a CSC matrix: for
// every column it stores only the entries whose rows sit in the current
// working set, with row indices already mapped to working-set positions.
// The screening engine rebuilds it once per working-set change and fills
// every sampled column through it until the set moves again, so the
// per-column O(nz) position-map filter of SampledGramPackedRows is paid
// once per layout instead of once per sampled column — with the backoff
// scan cadence a layout survives tens of rounds, which turns the filter
// from a per-column tax into noise.
//
// Build is pure data movement (no flops are charged, exactly like the
// inline filter it replaces), and reading a column back yields the same
// (position, value) sequence the inline filter would produce, so fills
// through a view are bit-identical to fills through the filter.
type ActiveView struct {
	colptr []int
	rows   []int
	vals   []float64
}

// Build refilters the view against matrix a and the working-set inverse
// map pos (pos[row] = position in the working set, -1 when screened).
// It counts the kept entries first and sizes its buffers to that count;
// buffers only ever grow, so a rebuild that fits the previous capacity
// is allocation-free.
func (v *ActiveView) Build(a *CSC, pos []int) {
	if len(pos) != a.Rows {
		panic("sparse: ActiveView Build dimension mismatch")
	}
	n := 0
	for _, r := range a.RowIdx {
		if pos[r] >= 0 {
			n++
		}
	}
	v.fill(a, pos, n)
}

// fill writes the n kept entries of a into the view.
func (v *ActiveView) fill(a *CSC, pos []int, n int) {
	if cap(v.colptr) < a.Cols+1 {
		v.colptr = make([]int, a.Cols+1)
	}
	if cap(v.rows) < n {
		v.rows = make([]int, 0, n)
		v.vals = make([]float64, 0, n)
	}
	v.colptr = v.colptr[:a.Cols+1]
	v.rows = v.rows[:0]
	v.vals = v.vals[:0]
	for j := 0; j < a.Cols; j++ {
		v.colptr[j] = len(v.rows)
		rows, vals := a.Col(j)
		for p, r := range rows {
			if ap := pos[r]; ap >= 0 {
				v.rows = append(v.rows, ap)
				v.vals = append(v.vals, vals[p])
			}
		}
	}
	v.colptr[a.Cols] = len(v.rows)
}

// mulVecT computes t[j] = sum of val * w[position] over column j's kept
// entries, in the view's (increasing row) order: the view's transposed
// product, gathering w through the working-set positions.
func (v *ActiveView) mulVecT(t, w []float64) {
	ptr, rows, vals := v.colptr, v.rows, v.vals
	for j := range t {
		lo, hi := ptr[j], ptr[j+1]
		rs, vs := rows[lo:hi:hi], vals[lo:hi:hi]
		var s float64
		for k, r := range rs {
			s += vs[k] * w[r]
		}
		t[j] = s
	}
}

// SampledGramPackedView is SampledGramPackedRows with the active-row
// filter amortized through a prebuilt ActiveView: identical accumulation
// order, identical flop charge na(na+1) + 2nz per column, identical
// bits — only the per-column position-map walk is gone.
func SampledGramPackedView(a *CSC, view *ActiveView, h *mat.SymPacked, r []float64, y []float64, cols []int, scale float64, c *perf.Cost) {
	if len(r) != a.Rows || len(y) != a.Cols {
		panic("sparse: SampledGramPackedView dimension mismatch")
	}
	n := len(cols)
	if cols == nil {
		n = a.Cols
	}
	hn, hd := h.N, h.Data
	colPtr, rowIdx, val := a.ColPtr, a.RowIdx, a.Val
	vptr, vrows, vvals := view.colptr, view.rows, view.vals
	var flops int64
	for ci := 0; ci < n; ci++ {
		j := ci
		if cols != nil {
			j = cols[ci]
		}
		vlo, vhi := vptr[j], vptr[j+1]
		na := vhi - vlo
		// Upper triangle of the reduced scale * x_j x_j^T, the same
		// sweep as the Rows kernel.
		upperSweep(hd, hn, vrows[vlo:vhi:vhi], vvals[vlo:vhi:vhi], scale)
		// R += scale * y_j * x_j over the FULL sparsity pattern.
		lo, hi := colPtr[j], colPtr[j+1]
		rows, vals := rowIdx[lo:hi:hi], val[lo:hi:hi]
		sy := scale * y[j]
		for p, rp := range rows {
			r[rp] += sy * vals[p]
		}
		flops += int64(na*(na+1) + 2*len(rows))
	}
	c.AddFlops(flops)
}
