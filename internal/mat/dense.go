package mat

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	// Data holds the entries in row-major order: element (i, j) lives at
	// Data[i*Cols+j]. len(Data) == Rows*Cols.
	Data []float64
}

// NewDense allocates a zeroed r x c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimensions")
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// DenseOf wraps data (not copied) as an r x c matrix.
func DenseOf(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		denseOfMismatch(r, c, len(data))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// denseOfMismatch is DenseOf's panic, kept out of line so the
// constructor inlines (see symPackedOfMismatch).
//
//go:noinline
func denseOfMismatch(r, c, got int) {
	panic(fmt.Sprintf("mat: DenseOf got %d values for %dx%d", got, r, c))
}

// Dim returns the row dimension, the operator size when a is square.
func (a *Dense) Dim() int { return a.Rows }

// At returns element (i, j).
func (a *Dense) At(i, j int) float64 { return a.Data[i*a.Cols+j] }

// Set assigns element (i, j).
func (a *Dense) Set(i, j int, v float64) { a.Data[i*a.Cols+j] = v }

// Row returns a view of row i (shares storage).
func (a *Dense) Row(i int) []float64 { return a.Data[i*a.Cols : (i+1)*a.Cols] }

// Clone returns a deep copy of a.
func (a *Dense) Clone() *Dense {
	out := NewDense(a.Rows, a.Cols)
	copy(out.Data, a.Data)
	return out
}

// Zero clears all entries.
func (a *Dense) Zero() { Zero(a.Data) }

// MulVec computes y = A*x. Panics on dimension mismatch.
func (a *Dense) MulVec(y, x []float64, c *perf.Cost) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic("mat: MulVec dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	c.AddFlops(int64(2 * a.Rows * a.Cols))
}

// MulVecT computes y = A^T*x. Panics on dimension mismatch.
func (a *Dense) MulVecT(y, x []float64, c *perf.Cost) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic("mat: MulVecT dimension mismatch")
	}
	Zero(y)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range row {
			y[j] += xi * v
		}
	}
	c.AddFlops(int64(2 * a.Rows * a.Cols))
}

// AddScaledCol computes y += s * A[:, j].
func (a *Dense) AddScaledCol(j int, s float64, y []float64, c *perf.Cost) {
	if j < 0 || j >= a.Cols || len(y) != a.Rows {
		panic("mat: AddScaledCol dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		y[i] += s * a.Data[i*a.Cols+j]
	}
	c.AddFlops(int64(2 * a.Rows))
}

// Mul computes C = A*B into dst. dst must be preallocated with shape
// (a.Rows, b.Cols) and must not alias a or b.
func Mul(dst, a, b *Dense, c *perf.Cost) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: Mul dimension mismatch")
	}
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(kk)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	c.AddFlops(int64(2 * a.Rows * a.Cols * b.Cols))
}

// AddScaledMat computes dst += s*src element-wise.
func AddScaledMat(dst *Dense, s float64, src *Dense, c *perf.Cost) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("mat: AddScaledMat dimension mismatch")
	}
	Axpy(s, src.Data, dst.Data, c)
}

// SymOuterUpdate performs the symmetric rank-1 update H += s * x x^T
// for a dense vector x. Only used for dense data; the sparse variant
// lives in package sparse.
func SymOuterUpdate(h *Dense, s float64, x []float64, c *perf.Cost) {
	if h.Rows != h.Cols || h.Rows != len(x) {
		panic("mat: SymOuterUpdate dimension mismatch")
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		sxi := s * xi
		row := h.Row(i)
		for j, xj := range x {
			row[j] += sxi * xj
		}
	}
	c.AddFlops(int64(2*len(x)*len(x) + len(x)))
}

// Symmetrize averages H with its transpose in place, squashing the
// round-off asymmetry that accumulates in summed outer products.
func Symmetrize(h *Dense, c *perf.Cost) {
	if h.Rows != h.Cols {
		panic("mat: Symmetrize needs a square matrix")
	}
	n := h.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (h.At(i, j) + h.At(j, i))
			h.Set(i, j, v)
			h.Set(j, i, v)
		}
	}
	c.AddFlops(int64(n * (n - 1)))
}

// MaxAbsDiff returns the maximum absolute element-wise difference
// between two equally shaped matrices.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: MaxAbsDiff dimension mismatch")
	}
	var m float64
	for i, v := range a.Data {
		d := v - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
