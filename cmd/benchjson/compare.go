package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Comparison mode: gate a fresh benchmark run against the committed
// baseline artifact. Benchmarks are matched by package and name without
// the -N GOMAXPROCS suffix, so a baseline recorded on a host with
// another core count still matches; when either side
// holds repeated runs (`go test -count N`), the minimum ns/op per name
// is compared — the minimum is the least-noise estimator for a
// latency-bound microbenchmark, the same convention the transport
// calibration uses for its ping-pong sweep.

// minMetric collapses a report to the minimum value of one metric unit
// seen per benchmark, keyed "package.name" with the name's GOMAXPROCS
// suffix removed.
func minMetric(rep *Report, unit string) map[string]float64 {
	out := map[string]float64{}
	for _, b := range rep.Benchmarks {
		v, ok := b.Metrics[unit]
		if !ok {
			continue
		}
		key := b.Package + "." + trimProcs(b.Name)
		if have, ok := out[key]; !ok || v < have {
			out[key] = v
		}
	}
	return out
}

// trimProcs removes the -N suffix go test appends to a benchmark name
// when GOMAXPROCS is not 1: BenchmarkX/P=4-2 becomes BenchmarkX/P=4.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// modeledOnly marks benchmarks that exist to report a modeled metric
// for the cross gates (the tier words ladder): their loop body is a
// microsecond-scale rounding kernel whose -benchtime=1x wall clock is
// dominated by host jitter, so an ns/op regression on them would gate
// on the machine, not the code. They are dropped from the baseline
// comparison and participate only in their metric's cross gates.
func modeledOnly(name string) bool {
	return strings.Contains(name, ".BenchmarkTierRoundWords/")
}

// Compare checks fresh against base and returns an error when any
// benchmark regressed by more than thresholdPct percent ns/op.
// Benchmarks present on only one side are reported but never fail the
// gate: adding or retiring a benchmark is not a regression.
func Compare(base, fresh *Report, thresholdPct float64, w io.Writer) error {
	bm, fm := minMetric(base, "ns/op"), minMetric(fresh, "ns/op")
	for name := range bm {
		if modeledOnly(name) {
			delete(bm, name)
		}
	}
	for name := range fm {
		if modeledOnly(name) {
			delete(fm, name)
		}
	}
	names := make([]string, 0, len(bm))
	for name := range bm {
		names = append(names, name)
	}
	sort.Strings(names)

	var regressed []string
	for _, name := range names {
		b := bm[name]
		f, ok := fm[name]
		if !ok {
			fmt.Fprintf(w, "  gone     %-60s baseline %.0f ns/op\n", name, b)
			continue
		}
		delta := 100 * (f - b) / b
		status := "ok"
		if delta > thresholdPct {
			status = "REGRESSED"
			regressed = append(regressed, fmt.Sprintf("%s (+%.1f%%)", name, delta))
		}
		fmt.Fprintf(w, "  %-9s%-60s %.0f -> %.0f ns/op (%+.1f%%)\n", status, name, b, f, delta)
	}
	for name, f := range fm {
		if _, ok := bm[name]; !ok {
			fmt.Fprintf(w, "  new      %-60s %.0f ns/op\n", name, f)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%: %v",
			len(regressed), thresholdPct, regressed)
	}
	if err := crossGates(fresh, w); err != nil {
		return err
	}
	fmt.Fprintf(w, "benchjson: no regression beyond %.0f%% across %d benchmarks\n",
		thresholdPct, len(names))
	return nil
}

// crossGate asserts an ordering between two benchmarks within the SAME
// fresh run: `smaller` must not exceed `larger` on the gated metric
// (and must stay strictly below it when strict). Unlike the baseline
// comparison this survives machine changes — it is a claim about the
// code, not about one host's clock.
type crossGate struct {
	smaller, larger string
	metric          string // compared unit: ns/op, words/round, ...
	strict          bool   // equality fails the gate too
}

// The cross-run claims the repo makes. The wall-clock pair enforces
// the activeset experiment on measured time: a screened solve must
// beat the dense solve on the same problem, else the reduced payload
// bought nothing. The words/round pairs enforce the quantized
// collective ladder on the modeled words the tier benchmarks report:
// each rung down the ladder must ship strictly fewer words per
// allreduce round (f64 > f32 > i8), so a cost-model edit that flattens
// the ladder fails the gate rather than silently voiding the claim.
var crossRunGates = []crossGate{
	{smaller: "BenchmarkActiveSetSolve", larger: "BenchmarkDenseSolveBaseline", metric: "ns/op"},
	{smaller: "BenchmarkTierRoundWords/i8", larger: "BenchmarkTierRoundWords/f32", metric: "words/round", strict: true},
	{smaller: "BenchmarkTierRoundWords/f32", larger: "BenchmarkTierRoundWords/f64", metric: "words/round", strict: true},
}

// crossGates applies crossRunGates to the fresh run's per-name metric
// minima, matching the benchmark part of each suffix-free key. A run
// that includes neither side of a pair (a partial -bench invocation)
// skips the gate with a note; a run with exactly one side fails — that
// is what a renamed benchmark quietly disabling the claim looks like.
func crossGates(fresh *Report, w io.Writer) error {
	for _, g := range crossRunGates {
		m := minMetric(fresh, g.metric)
		lookup := func(prefix string) (float64, bool) {
			best, found := math.Inf(1), false
			for name, v := range m {
				// name is "pkg.BenchmarkFoo"; match the benchmark part.
				if name[strings.LastIndex(name, ".")+1:] == prefix {
					found = true
					if v < best {
						best = v
					}
				}
			}
			return best, found
		}
		rel := "<="
		if g.strict {
			rel = "<"
		}
		sv, sok := lookup(g.smaller)
		lv, lok := lookup(g.larger)
		if !sok && !lok {
			// The run did not include the gated package at all (a partial
			// -bench invocation); nothing to claim.
			fmt.Fprintf(w, "  gate     %s %s %s skipped: benchmarks not in this run\n", g.smaller, rel, g.larger)
			continue
		}
		if sok != lok {
			return fmt.Errorf("cross gate %s %s %s: half the pair missing from run (found %v/%v) — renamed benchmark?",
				g.smaller, rel, g.larger, sok, lok)
		}
		if sv > lv || (g.strict && sv == lv) {
			return fmt.Errorf("cross gate failed: %s %.0f %s is not %s %s %.0f %s",
				g.smaller, sv, g.metric, rel, g.larger, lv, g.metric)
		}
		fmt.Fprintf(w, "  gate     %s %.0f %s %s %s %.0f %s\n",
			g.smaller, sv, g.metric, rel, g.larger, lv, g.metric)
	}
	return nil
}

// validThreshold rejects thresholds that would make the gate
// meaningless.
func validThreshold(pct float64) error {
	if math.IsNaN(pct) || pct <= 0 || pct >= 1000 {
		return fmt.Errorf("threshold must be in (0, 1000) percent, got %g", pct)
	}
	return nil
}
