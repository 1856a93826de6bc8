package main

import (
	"strings"
	"testing"
)

func mkReport(entries ...Benchmark) *Report {
	return &Report{Benchmarks: entries}
}

func bench(name string, ns float64) Benchmark {
	return Benchmark{Name: name, Package: "p", Iterations: 1,
		Metrics: map[string]float64{"ns/op": ns}}
}

func TestCompareMinAcrossRepeats(t *testing.T) {
	// Repeated -count runs: the minimum is what the gate compares, so
	// one noisy repeat on either side must not trip it.
	base := mkReport(bench("BenchmarkX", 100), bench("BenchmarkX", 140))
	fresh := mkReport(bench("BenchmarkX", 180), bench("BenchmarkX", 104))
	var out strings.Builder
	if err := Compare(base, fresh, 15, &out); err != nil {
		t.Fatalf("4%% drift beyond min failed the 15%% gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regression") {
		t.Fatalf("missing summary:\n%s", out.String())
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	base := mkReport(bench("BenchmarkX", 100), bench("BenchmarkY", 50))
	fresh := mkReport(bench("BenchmarkX", 130), bench("BenchmarkY", 51))
	var out strings.Builder
	err := Compare(base, fresh, 15, &out)
	if err == nil {
		t.Fatalf("30%% regression passed the 15%% gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkX") || strings.Contains(err.Error(), "BenchmarkY") {
		t.Fatalf("wrong benchmarks blamed: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("missing REGRESSED row:\n%s", out.String())
	}
}

func TestCompareAddedAndRemovedAreNotRegressions(t *testing.T) {
	base := mkReport(bench("BenchmarkOld", 100), bench("BenchmarkKept", 10))
	fresh := mkReport(bench("BenchmarkKept", 10), bench("BenchmarkNew", 999))
	var out strings.Builder
	if err := Compare(base, fresh, 15, &out); err != nil {
		t.Fatalf("added/removed benchmarks failed the gate: %v", err)
	}
	if !strings.Contains(out.String(), "gone") || !strings.Contains(out.String(), "new") {
		t.Fatalf("added/removed not reported:\n%s", out.String())
	}
}

func TestCompareMatchesAcrossGOMAXPROCS(t *testing.T) {
	// A baseline recorded at GOMAXPROCS=2 must match a run at 16 or at
	// 1 (no suffix): same benchmarks, not a gone/new pair each.
	base := mkReport(bench("BenchmarkX-2", 100), bench("BenchmarkY/P=4-2", 50))
	for _, procs := range []string{"-16", ""} {
		fresh := mkReport(bench("BenchmarkX"+procs, 130), bench("BenchmarkY/P=4"+procs, 51))
		var out strings.Builder
		err := Compare(base, fresh, 15, &out)
		if err == nil || !strings.Contains(err.Error(), "BenchmarkX (+30.0%)") {
			t.Fatalf("suffix %q: regression of BenchmarkX not caught: %v\n%s", procs, err, out.String())
		}
		if strings.Contains(out.String(), "gone") || strings.Contains(out.String(), "new ") {
			t.Fatalf("suffix %q: names did not match:\n%s", procs, out.String())
		}
		if !strings.Contains(out.String(), "p.BenchmarkY/P=4 ") {
			t.Fatalf("suffix %q: sub-benchmark key lost its own name:\n%s", procs, out.String())
		}
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-2":          "BenchmarkX",
		"BenchmarkX":            "BenchmarkX",
		"BenchmarkY/P=4-16":     "BenchmarkY/P=4",
		"BenchmarkY/P=4":        "BenchmarkY/P=4",
		"BenchmarkZ/tall-range": "BenchmarkZ/tall-range",
		"BenchmarkZ-":           "BenchmarkZ-",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareCrossGateOrdersActiveVsDense(t *testing.T) {
	// The wall-clock gate: ActiveSetSolve must not exceed
	// DenseSolveBaseline in the SAME fresh run. Matching tolerates the
	// -N GOMAXPROCS suffix and takes the minimum over repeats.
	mk := func(activeNs, denseNs float64) *Report {
		return mkReport(
			bench("BenchmarkKept", 10),
			bench("BenchmarkActiveSetSolve-16", activeNs),
			bench("BenchmarkActiveSetSolve-16", activeNs*1.4),
			bench("BenchmarkDenseSolveBaseline-16", denseNs),
		)
	}
	// Baseline is slower than every fresh run below, so only the cross
	// gate (which ignores the baseline) can fail these comparisons.
	base := mk(2000, 2000)
	var out strings.Builder
	if err := Compare(base, mk(900, 1000), 1000, &out); err != nil {
		t.Fatalf("active faster than dense failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "gate") {
		t.Fatalf("gate row not reported:\n%s", out.String())
	}

	out.Reset()
	err := Compare(base, mk(1100, 1000), 1000, &out)
	if err == nil || !strings.Contains(err.Error(), "cross gate failed") {
		t.Fatalf("active slower than dense passed the gate: %v\n%s", err, out.String())
	}

	// Half the pair missing is a failure (renamed benchmark), while a
	// run without either is a skip (partial -bench invocation).
	half := mkReport(bench("BenchmarkKept", 10), bench("BenchmarkActiveSetSolve-16", 5))
	if err := Compare(mkReport(bench("BenchmarkKept", 10)), half, 1000, &out); err == nil {
		t.Fatalf("half-missing pair passed the gate:\n%s", out.String())
	}
	out.Reset()
	neither := mkReport(bench("BenchmarkKept", 10))
	if err := Compare(neither, neither, 1000, &out); err != nil {
		t.Fatalf("gate did not skip on a run without the pair: %v", err)
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Fatalf("skip not reported:\n%s", out.String())
	}
}

func TestCompareCrossGateTierWordsLadder(t *testing.T) {
	// The words/round gates are strict: each rung of the quantized
	// ladder must ship strictly fewer modeled words than the rung above.
	tierBench := func(tier string, words float64) Benchmark {
		return Benchmark{Name: "BenchmarkTierRoundWords/" + tier + "-16", Package: "p",
			Iterations: 1, Metrics: map[string]float64{"ns/op": 5, "words/round": words}}
	}
	mk := func(i8, f32, f64 float64) *Report {
		return mkReport(bench("BenchmarkKept", 10),
			tierBench("i8", i8), tierBench("f32", f32), tierBench("f64", f64))
	}
	base := mk(600, 2048, 4096)
	var out strings.Builder
	if err := Compare(base, mk(600, 2048, 4096), 1000, &out); err != nil {
		t.Fatalf("strictly decreasing ladder failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "words/round") {
		t.Fatalf("words gate rows not reported:\n%s", out.String())
	}

	// A flattened rung (i8 == f32) fails even at equality.
	out.Reset()
	err := Compare(base, mk(2048, 2048, 4096), 1000, &out)
	if err == nil || !strings.Contains(err.Error(), "cross gate failed") {
		t.Fatalf("flat i8/f32 ladder passed the strict gate: %v\n%s", err, out.String())
	}

	// A run without the tier benchmarks skips the words gates (the
	// wall-clock pair is absent here too, so everything skips).
	out.Reset()
	neither := mkReport(bench("BenchmarkKept", 10))
	if err := Compare(neither, neither, 1000, &out); err != nil {
		t.Fatalf("words gate did not skip on a run without the tier benchmarks: %v", err)
	}
}

func TestValidThreshold(t *testing.T) {
	for _, bad := range []float64{0, -5, 1000} {
		if err := validThreshold(bad); err == nil {
			t.Fatalf("threshold %g accepted", bad)
		}
	}
	if err := validThreshold(15); err != nil {
		t.Fatal(err)
	}
}
