package mat

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hpcgo/rcsfista/internal/perf"
)

const eps = 1e-12

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y, nil); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %g", got)
	}
	if got := Dot(nil, nil, nil); got != 0 {
		t.Fatalf("empty Dot = %g", got)
	}
}

func TestDotChargesFlops(t *testing.T) {
	var c perf.Cost
	Dot([]float64{1, 2}, []float64{3, 4}, &c)
	if c.Flops != 4 {
		t.Fatalf("Dot charged %d flops, want 4", c.Flops)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2}, nil)
}

func TestDotSymmetryProperty(t *testing.T) {
	f := func(a, b [8]float64) bool {
		for i := range a {
			if math.Abs(a[i]) > 1e100 || math.Abs(b[i]) > 1e100 {
				return true // overflow regime: +Inf-Inf order effects
			}
		}
		return Dot(a[:], b[:], nil) == Dot(b[:], a[:], nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y, nil)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
}

func TestAxpyZeroAlphaIsNoop(t *testing.T) {
	y := []float64{1, 2}
	var c perf.Cost
	Axpy(0, []float64{5, 5}, y, &c)
	if y[0] != 1 || y[1] != 2 || c.Flops != 0 {
		t.Fatalf("Axpy(0) modified y or charged flops: %v %v", y, c)
	}
}

func TestAxpyLinearityProperty(t *testing.T) {
	f := func(a float64, x, y [6]float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		y1 := Clone(y[:])
		Axpy(a, x[:], y1, nil)
		for i := range y1 {
			want := y[i] + a*x[i]
			if y1[i] != want && !(math.IsNaN(y1[i]) && math.IsNaN(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScal(t *testing.T) {
	x := []float64{2, -4}
	Scal(0.5, x, nil)
	if x[0] != 1 || x[1] != -2 {
		t.Fatalf("Scal = %v", x)
	}
}

func TestNrm2(t *testing.T) {
	if got := Nrm2([]float64{3, 4}, nil); got != 5 {
		t.Fatalf("Nrm2 = %g", got)
	}
	if got := Nrm2(nil, nil); got != 0 {
		t.Fatalf("Nrm2(empty) = %g", got)
	}
}

func TestNrm2NonNegativeProperty(t *testing.T) {
	f := func(x [10]float64) bool {
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		n := Nrm2(x[:], nil)
		return n >= 0 && (n > 0) == anyNonzero(x[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func anyNonzero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return true
		}
	}
	return false
}

func TestNrm1AndInf(t *testing.T) {
	x := []float64{-1, 2, -3}
	if got := Nrm1(x, nil); got != 6 {
		t.Fatalf("Nrm1 = %g", got)
	}
	if got := NrmInf(x); got != 3 {
		t.Fatalf("NrmInf = %g", got)
	}
	if got := NrmInf(nil); got != 0 {
		t.Fatalf("NrmInf(empty) = %g", got)
	}
}

func TestNormInequalitiesProperty(t *testing.T) {
	// ||x||_inf <= ||x||_2 <= ||x||_1 for all x.
	f := func(x [12]float64) bool {
		for _, v := range x {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true
			}
		}
		ninf := NrmInf(x[:])
		n2 := Nrm2(x[:], nil)
		n1 := Nrm1(x[:], nil)
		return ninf <= n2*(1+eps)+eps && n2 <= n1*(1+eps)+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubAddRoundtripProperty(t *testing.T) {
	f := func(x, y [7]float64) bool {
		for i := range x {
			if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
				return true
			}
		}
		d := make([]float64, len(x))
		Sub(d, x[:], y[:], nil)
		back := make([]float64, len(x))
		Add(back, d, y[:], nil)
		for i := range back {
			if !almostEq(back[i], x[i], 1e-9) && math.Abs(back[i]-x[i]) > 1e-9*math.Abs(x[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddScaledAliasing(t *testing.T) {
	x := []float64{1, 2, 3}
	AddScaled(x, x, 2, x, nil) // x = x + 2x = 3x
	want := []float64{3, 6, 9}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("aliased AddScaled = %v", x)
		}
	}
}

func TestDist2(t *testing.T) {
	if got := Dist2([]float64{0, 0}, []float64{3, 4}, nil); got != 5 {
		t.Fatalf("Dist2 = %g", got)
	}
}

func TestCopyFillZero(t *testing.T) {
	x := []float64{7, math.Copysign(0, -1), 7}
	y := make([]float64, 3)
	Copy(y, x)
	if y[0] != 7 || math.Float64bits(y[1]) != math.Float64bits(x[1]) || y[2] != 7 {
		t.Fatalf("Copy = %v", y)
	}
	Zero(x)
	for i, v := range x {
		if math.Float64bits(v) != 0 {
			t.Fatalf("Zero left x[%d] = %v (%#x), want +0", i, v, math.Float64bits(v))
		}
	}
}

func TestCountNonzeros(t *testing.T) {
	x := []float64{0, 1e-12, -0.5, 2}
	if got := CountNonzeros(x, 1e-9); got != 2 {
		t.Fatalf("CountNonzeros = %d", got)
	}
	if got := CountNonzeros(x, 0); got != 3 {
		t.Fatalf("CountNonzeros(0) = %d", got)
	}
}

func TestClone(t *testing.T) {
	x := []float64{1, 2}
	y := Clone(x)
	y[0] = 9
	if x[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestNilCostIsSafe(t *testing.T) {
	// All kernels must accept a nil cost.
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	_ = Dot(x, y, nil)
	Axpy(1, x, y, nil)
	Scal(2, x, nil)
	_ = Nrm2(x, nil)
	_ = Nrm1(x, nil)
	Sub(y, x, y, nil)
	Add(y, x, y, nil)
	AddScaled(y, x, 1, y, nil)
	_ = Dist2(x, y, nil)
}
