package sparse

import (
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// SampledGram accumulates the sampled Gram contributions of Eq. 18 for
// the sample (column) index set cols:
//
//	H += scale * sum_{j in cols} x_j x_j^T
//	R += scale * sum_{j in cols} y_j x_j
//
// where x_j is column j of a and y_j the matching label. H must be
// Rows x Rows and R of length Rows. This is stage B of Figure 1: each
// processor calls it with its local column block and local sample set;
// the partial results are then combined with one allreduce (stage C).
//
// The cost charged matches the actual sparse outer-product work of the
// dense-format kernel: roughly 2*nnz(x_j)^2 + 2*nnz(x_j) flops per
// sampled column, the d^2*mbar*f-type term in Table 1.
// SampledGramPacked does the same accumulation into packed upper
// storage at about half that.
//
// Each off-diagonal product scale*x_i*x_j is computed once and written
// to both triangles, so the result is bitwise symmetric — H and its
// packed counterpart agree element-for-element, which is what makes the
// packed and dense engine paths produce bit-identical iterates.
// A nil cols accumulates every column — the FullGram path — without
// materializing an all-columns index slice.
func SampledGram(a *CSC, h *mat.Dense, r []float64, y []float64, cols []int, scale float64, c *perf.Cost) {
	if h.Rows != a.Rows || h.Cols != a.Rows || len(r) != a.Rows || len(y) != a.Cols {
		panic("sparse: SampledGram dimension mismatch")
	}
	n := len(cols)
	if cols == nil {
		n = a.Cols
	}
	var flops int64
	for ci := 0; ci < n; ci++ {
		j := ci
		if cols != nil {
			j = cols[ci]
		}
		rows, vals := a.Col(j)
		nz := len(rows)
		// H += scale * x_j x_j^T over the sparsity pattern of x_j.
		// Column row indices are strictly increasing, so q >= p targets
		// the upper triangle; the same product mirrors to the lower.
		for p := 0; p < nz; p++ {
			hp := h.Row(rows[p])
			sv := scale * vals[p]
			hp[rows[p]] += sv * vals[p]
			for q := p + 1; q < nz; q++ {
				v := sv * vals[q]
				hp[rows[q]] += v
				h.Row(rows[q])[rows[p]] += v
			}
		}
		// R += scale * y_j * x_j.
		sy := scale * y[j]
		for p := 0; p < nz; p++ {
			r[rows[p]] += sy * vals[p]
		}
		flops += int64(2*nz*nz + 2*nz)
	}
	c.AddFlops(flops)
}

// SampledGramPacked is SampledGram into packed symmetric storage: only
// the upper triangle of H is accumulated, so each sampled column costs
// nz(nz+1) + 2nz flops instead of the dense kernel's 2nz^2 + 2nz —
// the ~2x Gram-flop saving of exploiting symmetry. The accumulation
// order per element matches SampledGram exactly, so the packed result
// equals the dense upper triangle bit for bit.
// A nil cols accumulates every column (the FullGramPacked path).
func SampledGramPacked(a *CSC, h *mat.SymPacked, r []float64, y []float64, cols []int, scale float64, c *perf.Cost) {
	if h.N != a.Rows || len(r) != a.Rows || len(y) != a.Cols {
		panic("sparse: SampledGramPacked dimension mismatch")
	}
	n := len(cols)
	if cols == nil {
		n = a.Cols
	}
	hn, hd := h.N, h.Data
	colPtr, rowIdx, val := a.ColPtr, a.RowIdx, a.Val
	var flops int64
	for ci := 0; ci < n; ci++ {
		j := ci
		if cols != nil {
			j = cols[ci]
		}
		lo, hi := colPtr[j], colPtr[j+1]
		rows, vals := rowIdx[lo:hi:hi], val[lo:hi:hi]
		nz := len(rows)
		upperSweep(hd, hn, rows, vals, scale)
		sy := scale * y[j]
		for p, rp := range rows {
			r[rp] += sy * vals[p]
		}
		flops += int64(nz*(nz+1) + 2*nz)
	}
	c.AddFlops(flops)
}

// upperSweep adds the upper triangle of scale * x x^T into the n x n
// packed upper storage data, for the sparse vector x with strictly
// increasing indices rows and values vals. Element (b, q), b <= q,
// sits at b(2n-b-1)/2 + q, so each row's base is computed inline
// instead of through a row-tail slice. The sweep is register-blocked
// two rows at a time — one (rows[q], vals[q]) load feeds both rows'
// accumulations. Each packed element receives exactly one contribution
// scale*vals[p]*vals[q] per call, so the blocked order is bit-identical
// to the row-at-a-time form. Shared by every packed Gram kernel.
func upperSweep(data []float64, n int, rows []int, vals []float64, scale float64) {
	nz := len(rows)
	vals = vals[:nz]
	p := 0
	for ; p+1 < nz; p += 2 {
		b0, b1 := rows[p], rows[p+1]
		o0, o1 := b0*(2*n-b0-1)/2, b1*(2*n-b1-1)/2
		sv0, sv1 := scale*vals[p], scale*vals[p+1]
		data[o0+b0] += sv0 * vals[p]
		data[o0+b1] += sv0 * vals[p+1]
		data[o1+b1] += sv1 * vals[p+1]
		rt, vt := rows[p+2:], vals[p+2:]
		vt = vt[:len(rt)]
		for q, rq := range rt {
			vq := vt[q]
			data[o0+rq] += sv0 * vq
			data[o1+rq] += sv1 * vq
		}
	}
	if p < nz {
		b := rows[p]
		data[b*(2*n-b-1)/2+b] += scale * vals[p] * vals[p]
	}
}

// FullGram computes H = scale * A A^T and R = scale * A y from scratch
// (all columns). H must be Rows x Rows and is cleared first.
// Allocation-free: the kernel iterates the columns directly instead of
// materializing an all-columns index slice.
func FullGram(a *CSC, h *mat.Dense, r []float64, y []float64, scale float64, c *perf.Cost) {
	h.Zero()
	mat.Zero(r)
	SampledGram(a, h, r, y, nil, scale, c)
}

// FullGramPacked computes H = scale * A A^T (upper triangle, packed)
// and R = scale * A y from scratch. H is cleared first.
// Allocation-free, like FullGram.
func FullGramPacked(a *CSC, h *mat.SymPacked, r []float64, y []float64, scale float64, c *perf.Cost) {
	h.Zero()
	mat.Zero(r)
	SampledGramPacked(a, h, r, y, nil, scale, c)
}

// GramApply computes g = scale * A (A^T w) - shift without forming the
// Gram matrix, i.e. the exact least-squares gradient direction when
// scale = 1/m and shift = (1/m) A y. g, w have length Rows; shift may
// be nil, meaning zero. scratch must have length Cols (reused across
// calls to avoid allocation).
func GramApply(a *CSC, g, w, shift, scratch []float64, scale float64, c *perf.Cost) {
	if len(g) != a.Rows || len(w) != a.Rows || len(scratch) != a.Cols {
		panic("sparse: GramApply dimension mismatch")
	}
	a.MulVecT(scratch, w, c)
	mat.Zero(g)
	a.MulVec(g, scratch, c)
	if scale != 1 {
		mat.Scal(scale, g, c)
	}
	if shift != nil {
		mat.Axpy(-1, shift, g, c)
	}
}
