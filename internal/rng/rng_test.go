package rng

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/64 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced constant zeros")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(8)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestIntnRangeProperty(t *testing.T) {
	r := New(9)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(10)
	const buckets, n = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/buckets) > 500 {
			t.Fatalf("bucket %d: %d draws, want ~%d", b, c, n/buckets)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	var sum, sum2 float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal moments: mean=%g var=%g", mean, variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	for _, n := range []int{0, 1, 2, 17} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has %d entries", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(13)
	x := []int{1, 2, 2, 3, 5, 8}
	sum := 0
	for _, v := range x {
		sum += v
	}
	r.Shuffle(x)
	got := 0
	for _, v := range x {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed contents: %v", x)
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	r := New(14)
	f := func(seed uint32) bool {
		rr := New(uint64(seed))
		n := 1 + rr.Intn(200)
		k := rr.Intn(n + 1)
		s := r.SampleWithoutReplacement(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	r := New(15)
	s := r.SampleWithoutReplacement(10, 10)
	seen := make([]bool, 10)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("full sample missing %d: %v", i, s)
		}
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each index should appear with probability k/n.
	r := New(16)
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		for _, v := range r.SampleWithoutReplacement(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.06 {
			t.Fatalf("index %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	// k > n, negative arguments, and an n the int32 scratch cannot
	// index (rejected before any scratch is built).
	for _, c := range []struct{ n, k int }{{3, 4}, {-1, 0}, {5, -1}, {math.MaxInt32 + 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d k=%d: expected panic", c.n, c.k)
				}
			}()
			New(1).SampleWithoutReplacement(c.n, c.k)
		}()
	}
}

func TestSampleWithReplacement(t *testing.T) {
	r := New(17)
	s := r.SampleWithReplacement(5, 100)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	for _, v := range s {
		if v < 0 || v >= 5 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(18)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %g", float64(hits)/n)
	}
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) fired")
	}
}

func TestSourceStreamsDeterministic(t *testing.T) {
	s1 := NewSource(42)
	s2 := NewSource(42)
	a := s1.Stream(3, 17)
	b := s2.Stream(3, 17)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, epoch, iter) stream diverged")
		}
	}
}

func TestSourceStreamsIndependent(t *testing.T) {
	s := NewSource(42)
	pairs := [][2]int{{0, 0}, {0, 1}, {1, 0}, {7, 7}, {7, 8}}
	outs := map[uint64]bool{}
	for _, p := range pairs {
		v := s.Stream(p[0], p[1]).Uint64()
		if outs[v] {
			t.Fatalf("stream collision for %v", p)
		}
		outs[v] = true
	}
}

func TestSourceSeed(t *testing.T) {
	if NewSource(99).Seed() != 99 {
		t.Fatal("Seed() wrong")
	}
}

func TestSampleSetIsPureFunctionOfStream(t *testing.T) {
	// The property the distributed solver relies on: any process can
	// regenerate the iteration-n sample set from (seed, epoch, n).
	src := NewSource(1234)
	a := src.Stream(1, 55).SampleWithoutReplacement(1000, 100)
	b := NewSource(1234).Stream(1, 55).SampleWithoutReplacement(1000, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sample sets differ across processes")
		}
	}
}

// refSample is an independent implementation of the same draw: a
// partial Fisher-Yates over a map that holds only the displaced
// entries of the identity. It is the oracle every index drawn by
// SampleWithoutReplacement and SampleRange must match.
func refSample(r *Rng, n, k int) []int {
	out := make([]int, k)
	swapped := make(map[int]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vi, ok := swapped[i]
		if !ok {
			vi = i
		}
		vj, ok := swapped[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		swapped[j] = vi
		swapped[i] = vj
	}
	return out
}

// refRange is refSample filtered to [lo, hi) and shifted by -lo.
func refRange(r *Rng, n, k, lo, hi int) []int {
	out := []int{}
	for _, v := range refSample(r, n, k) {
		if v >= lo && v < hi {
			out = append(out, v-lo)
		}
	}
	return out
}

// checkAgainstOracle draws (n, k) and the [lo, hi) variant from stream
// seed and compares both, and the stream position after the draw,
// with the reference sampler.
func checkAgainstOracle(t testing.TB, seed uint64, n, k, lo, hi int, dst []int) []int {
	t.Helper()
	got, ref := New(seed), New(seed)
	if s, want := got.SampleWithoutReplacement(n, k), refSample(ref, n, k); !slices.Equal(s, want) {
		t.Fatalf("seed %d n=%d k=%d: got %v, want %v", seed, n, k, s, want)
	}
	if got.Uint64() != ref.Uint64() {
		t.Fatalf("seed %d n=%d k=%d: stream position differs after the draw", seed, n, k)
	}
	got, ref = New(seed), New(seed)
	dst = got.SampleRange(n, k, lo, hi, dst)
	if want := refRange(ref, n, k, lo, hi); !slices.Equal(dst, want) {
		t.Fatalf("seed %d n=%d k=%d [%d,%d): got %v, want %v", seed, n, k, lo, hi, dst, want)
	}
	if got.Uint64() != ref.Uint64() {
		t.Fatalf("seed %d n=%d k=%d [%d,%d): stream position differs", seed, n, k, lo, hi)
	}
	return dst
}

func TestSampleMatchesMapOracle(t *testing.T) {
	cases := []struct{ n, k, lo, hi int }{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{1, 1, 0, 1},
		{1, 1, 1, 5},    // out of range above
		{10, 0, 0, 10},  // k=0
		{10, 10, 0, 10}, // k=n
		{10, 10, 3, 7},
		{10, 4, 5, 5},   // empty range
		{10, 4, 7, 3},   // inverted range
		{10, 4, -5, 0},  // out of range below
		{10, 4, -5, 4},  // straddles 0
		{10, 4, 8, 100}, // straddles n
		{24000, 2400, 0, 12000},
		{24000, 2400, 12000, 24000},
		{8000, 800, 0, 8000},
		{7, 3, 0, 7},
	}
	var dst []int
	for seed := uint64(1); seed <= 5; seed++ {
		for _, c := range cases {
			dst = checkAgainstOracle(t, seed, c.n, c.k, c.lo, c.hi, dst)
		}
	}
}

// TestSampleScratchReuseAcrossSizes alternates a large n with a small
// one, so a pooled scratch left by one draw serves the next: a scratch
// not fully restored to the identity would corrupt the later draws.
func TestSampleScratchReuseAcrossSizes(t *testing.T) {
	var dst []int
	for i := uint64(0); i < 40; i++ {
		n, k := 5000, 4999
		if i%2 == 1 {
			n, k = 3+int(i%5), 2
		}
		dst = checkAgainstOracle(t, 100+i, n, k, n/3, n, dst)
	}
}

// TestSampleConcurrent runs eight goroutines drawing at once; under
// the race detector it also checks the pooled scratch is never shared.
func TestSampleConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []int
			for it := 0; it < 30; it++ {
				seed := uint64(g*1000 + it)
				n := 200 + 300*(g%3)
				k := n / (2 + it%3)
				lo, hi := n/4, n/2
				if s := New(seed).SampleWithoutReplacement(n, k); !slices.Equal(s, refSample(New(seed), n, k)) {
					errs <- fmt.Sprintf("goroutine %d seed %d: full draw differs", g, seed)
					return
				}
				dst = New(seed).SampleRange(n, k, lo, hi, dst)
				if !slices.Equal(dst, refRange(New(seed), n, k, lo, hi)) {
					errs <- fmt.Sprintf("goroutine %d seed %d: range draw differs", g, seed)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSampleRangeReusesDst(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so the scratch can be rebuilt")
	}
	r := New(3)
	dst := make([]int, 0, 100)
	if n := testing.AllocsPerRun(50, func() { dst = r.SampleRange(1000, 100, 0, 1000, dst) }); n != 0 {
		t.Fatalf("warm SampleRange allocated %g times per call", n)
	}
}

// FuzzSampleWithoutReplacement checks both samplers against the map
// oracle at fuzzed (seed, n, k, lo, hi); n is folded into [0, 4096] to
// keep the scratch small, k into [0, n], the range left free.
func FuzzSampleWithoutReplacement(f *testing.F) {
	f.Add(uint64(1), 10, 3, 0, 10)
	f.Add(uint64(2), 24000, 2400, 12000, 24000)
	f.Add(uint64(3), 0, 0, -1, 1)
	f.Add(uint64(4), 1, 1, 1, 0)
	f.Fuzz(func(t *testing.T, seed uint64, n, k, lo, hi int) {
		n = int(uint(n) % 4097)
		k = int(uint(k) % uint(n+1))
		checkAgainstOracle(t, seed, n, k, lo, hi, nil)
	})
}

// sampleSink keeps the benchmarked draws live.
var sampleSink []int

// BenchmarkSampleWithoutReplacement times stage A of one round at the
// benchmark shapes: the k slot draws of the tall (covtype-shaped,
// n=24000, k=8 slots of 2400) and wide-lean (mnist-shaped, n=8000, k=4
// slots of 800) solves, full and as one rank's half of a P=2
// partition. One op is a round, so a single iteration is long enough
// to time; us/draw is the per-slot figure.
func BenchmarkSampleWithoutReplacement(b *testing.B) {
	for _, c := range []struct {
		name          string
		n, draw, slot int
	}{{"tall_n24000_k2400", 24000, 2400, 8}, {"wide_n8000_k800", 8000, 800, 4}} {
		src := NewSource(1)
		b.Run(c.name+"/full", func(b *testing.B) {
			src.Stream(1, 0).SampleWithoutReplacement(c.n, c.draw) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < c.slot; j++ {
					sampleSink = src.Stream(1, i*c.slot+j).SampleWithoutReplacement(c.n, c.draw)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*c.slot), "us/draw")
		})
		b.Run(c.name+"/range", func(b *testing.B) {
			dst := make([][]int, c.slot)
			for j := range dst {
				dst[j] = src.Stream(1, j).SampleRange(c.n, c.draw, 0, c.n/2, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range dst {
					dst[j] = src.Stream(1, i*c.slot+j).SampleRange(c.n, c.draw, 0, c.n/2, dst[j])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*c.slot), "us/draw")
			sampleSink = dst[0]
		})
	}
}
