package sparse

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
)

// checkSupportPass runs one product through s and through CSC.MulVecT
// and fails unless the two agree bit for bit, flop charge included.
func checkSupportPass(t *testing.T, s *SupportPass, a *CSC, w []float64) {
	t.Helper()
	got, want := make([]float64, a.Cols), make([]float64, a.Cols)
	var gc, wc perf.Cost
	s.MulVecT(got, w, &gc)
	a.MulVecT(want, w, &wc)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("t[%d] = %v (%#x), MulVecT gives %v (%#x)", j, got[j],
				math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
	if gc != wc {
		t.Fatalf("support pass charged %+v, MulVecT %+v", gc, wc)
	}
}

// supportVec returns a length-d vector that is zero outside supp, with
// -0 in every third zero slot and mixed-sign values of scale on supp.
func supportVec(d int, supp []int, scale float64, st *rng.Rng) []float64 {
	w := make([]float64, d)
	for i := 0; i < d; i += 3 {
		w[i] = math.Copysign(0, -1)
	}
	for _, i := range supp {
		w[i] = scale * (st.Float64()*2 - 1)
		if w[i] == 0 {
			w[i] = scale
		}
	}
	return w
}

// TestSupportPassMatchesMulVecT is the oracle: over a growing support,
// signed zeros, an all-zero w, denormal-scale values and explicit
// stored zeros, the support pass equals CSC.MulVecT bit for bit and
// charges the same flops, rebuilding only when the support grows.
func TestSupportPassMatchesMulVecT(t *testing.T) {
	const d, m = 40, 120
	a, _ := gramRowsTestCSC(d, m, 0.5, 7)
	for k := 0; k < len(a.Val); k += 5 {
		a.Val[k] = 0 // explicit stored zeros
	}
	a.Val[1] = math.Copysign(0, -1)
	st := rng.NewSource(3).Stream(0, 0)
	s := NewSupportPass(a)

	checkSupportPass(t, s, a, make([]float64, d)) // all-zero w
	negZero := supportVec(d, nil, 1, st)          // only ±0 entries
	checkSupportPass(t, s, a, negZero)
	if got := s.Stats(); got.Rebuilds != 1 || got.Fallbacks != 0 {
		t.Fatalf("zero vectors: stats %+v, want one build and no fallback", got)
	}

	steps := []struct {
		supp     []int
		scale    float64
		rebuilds int
	}{
		{[]int{3}, 1, 2},
		{[]int{3}, 5e-324, 2}, // same support, smallest denormal
		{[]int{3, 17}, -5e-324, 3},
		{[]int{17}, 1e300, 3}, // support shrinks inside U: no rebuild
		{[]int{0, 9, 17, 30}, 1, 4},
		{[]int{39, 3}, 1e-300, 5},
	}
	for i, c := range steps {
		checkSupportPass(t, s, a, supportVec(d, c.supp, c.scale, st))
		if got := s.Stats(); got.Rebuilds != c.rebuilds || got.Fallbacks != 0 {
			t.Fatalf("step %d: stats %+v, want %d rebuilds and no fallback", i, got, c.rebuilds)
		}
	}

	// A support that would grow the view past half of the stored
	// entries takes the plain pass and leaves U alone: a later sparser
	// w inside U is served by the view again, and one that grows U
	// within the bound rebuilds it.
	wide := make([]int, 0, d)
	for i := 0; i < d; i += 2 {
		wide = append(wide, i)
	}
	checkSupportPass(t, s, a, supportVec(d, wide, 1, st))
	if got := s.Stats(); got.Rebuilds != 5 || got.Fallbacks != 1 {
		t.Fatalf("over half nnz: stats %+v, want 5 rebuilds and 1 fallback", got)
	}
	checkSupportPass(t, s, a, supportVec(d, []int{3, 39}, 1, st))
	checkSupportPass(t, s, a, supportVec(d, []int{3, 21}, 1, st))
	if got := s.Stats(); got.Rebuilds != 6 || got.Fallbacks != 1 {
		t.Fatalf("after the fallback: stats %+v, want 6 rebuilds and 1 fallback", got)
	}
}

// TestSupportPassNonFiniteTakesPlainPass pins the guard: a block with
// an Inf or NaN stored anywhere makes v·0 a NaN, so the pass must not
// skip rows and runs CSC.MulVecT from the first call.
func TestSupportPassNonFiniteTakesPlainPass(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		a, _ := gramRowsTestCSC(10, 30, 0.5, 11)
		a.Val[len(a.Val)/2] = bad
		s := NewSupportPass(a)
		w := make([]float64, a.Rows)
		w[a.RowIdx[0]] = 1
		checkSupportPass(t, s, a, w)
		checkSupportPass(t, s, a, w)
		if got := s.Stats(); got.Rebuilds != 0 || got.Fallbacks != 2 {
			t.Fatalf("value %v: stats %+v, want the plain pass on every call", bad, got)
		}
	}
}

func TestSupportPassDimensionPanics(t *testing.T) {
	a, _ := gramRowsTestCSC(5, 8, 0.5, 1)
	s := NewSupportPass(a)
	for name, f := range map[string]func(){
		"short t": func() { s.MulVecT(make([]float64, 7), make([]float64, 5), nil) },
		"short w": func() { s.MulVecT(make([]float64, 8), make([]float64, 4), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestSupportPassWarmIsAllocationFree: once the view covers the
// support, a product allocates nothing.
func TestSupportPassWarmIsAllocationFree(t *testing.T) {
	a, _ := gramRowsTestCSC(30, 200, 0.3, 5)
	s := NewSupportPass(a)
	w := make([]float64, a.Rows)
	w[4], w[20] = 1, -2
	out := make([]float64, a.Cols)
	s.MulVecT(out, w, nil)
	if n := testing.AllocsPerRun(20, func() { s.MulVecT(out, w, nil) }); n != 0 {
		t.Fatalf("warm support pass allocated %g times", n)
	}
}

// TestActiveViewBuildSizesToKeptEntries: Build sizes its buffers to the
// filtered entry count, not the matrix's, and only grows them.
func TestActiveViewBuildSizesToKeptEntries(t *testing.T) {
	a, _ := gramRowsTestCSC(20, 100, 0.5, 9)
	pos := make([]int, a.Rows)
	for i := range pos {
		pos[i] = -1
	}
	pos[2], pos[7] = 0, 1
	var v ActiveView
	v.Build(a, pos)
	kept := 0
	for _, r := range a.RowIdx {
		if pos[r] >= 0 {
			kept++
		}
	}
	if cap(v.rows) != kept || cap(v.vals) != kept || kept >= a.Nnz()/2 {
		t.Fatalf("view capacity %d/%d for %d kept of %d entries", cap(v.rows), cap(v.vals), kept, a.Nnz())
	}
	pos[7] = -1
	if n := testing.AllocsPerRun(5, func() { v.Build(a, pos) }); n != 0 {
		t.Fatalf("a smaller rebuild allocated %g times", n)
	}
}

// FuzzSupportMulVecT drives the support pass through a sequence of
// supports drawn from the fuzzer's masks over a random matrix with
// stored zeros, and checks every product against CSC.MulVecT.
func FuzzSupportMulVecT(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(30), uint8(128), uint64(0b1011), uint64(1<<40|1), int8(0))
	f.Add(uint64(2), uint8(64), uint8(3), uint8(255), uint64(0), ^uint64(0), int8(-120))
	f.Add(uint64(3), uint8(1), uint8(0), uint8(10), uint64(1), uint64(1), int8(100))
	f.Fuzz(func(t *testing.T, seed uint64, dRaw, mRaw, densRaw uint8, mask1, mask2 uint64, exp int8) {
		d := int(dRaw)%64 + 1
		m := int(mRaw)
		a, _ := gramRowsTestCSC(d, m, float64(densRaw)/255, seed)
		for k := 0; k < len(a.Val); k += 4 {
			a.Val[k] = 0
		}
		st := rng.NewSource(seed).Stream(1, 0)
		scale := math.Ldexp(1, int(exp)*8)
		s := NewSupportPass(a)
		for _, mask := range []uint64{mask1, mask1 | mask2, mask2, mask1 & mask2} {
			var supp []int
			for i := 0; i < d; i++ {
				if mask&(1<<uint(i)) != 0 {
					supp = append(supp, i)
				}
			}
			checkSupportPass(t, s, a, supportVec(d, supp, scale, st))
		}
	})
}
