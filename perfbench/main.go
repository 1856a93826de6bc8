// Command perfbench is the repository benchmark. It drives three
// workloads through the public entry points of the solver, dist, serve
// and load packages, checks every answer independently, and prints one
// JSON result line:
//
//	go run . --workload tall-tcp --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off;
// --trace 1 is the separate traced run that reports the per-layer
// split. --repeat N runs the workload N times (seeds seed..seed+N-1)
// and prints each metric's median and quartiles across the runs, which
// is where the bounds in BENCHMARK.json come from. README.md lists the
// metrics, the workloads and why each was chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// config is one run's settings.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Tiny shrinks every problem so the benchmark's own test runs in
	// seconds; the figures it produces are not comparable to full runs.
	Tiny bool
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what one workload run measured and every check it
// failed. End-to-end and per-layer metrics are kept apart so the plain
// and the traced run each print exactly their own set.
type report struct {
	e2e, layer map[string]metric
	attempted  int
	failed     int
	problems   []string
	notes      []string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// fail records one failed operation together with the reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records a failed check that is not itself an operation, such
// as a bit-identity violation between two solves that both converged.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config, r *report) error{
	"tall-tcp":      runTall,
	"wide-lean-tcp": runWideLean,
	"serve-path":    runServePath,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: picks the data instances and the sampling schedule")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer run")
	repeat := fs.Int("repeat", 1, "runs with seeds seed..seed+repeat-1; >1 prints median and quartiles per metric")
	tiny := fs.Bool("tiny", false, "shrink every problem (for the benchmark's own test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	if *repeat < 1 {
		return fmt.Errorf("--repeat must be >= 1, got %d", *repeat)
	}
	cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Tiny: *tiny}

	var runs []result
	for i := 0; i < *repeat; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		res, err := runOnce(c, out)
		if err != nil {
			return err
		}
		runs = append(runs, res)
	}
	final := runs[0]
	if len(runs) > 1 {
		final = summarizeRepeats(runs, out)
	}
	line, err := json.Marshal(final)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// runOnce runs one workload at one seed, prints the host context, the
// human-readable figures and every failed check, and returns the
// result object of that run.
func runOnce(cfg config, out io.Writer) (result, error) {
	fmt.Fprintf(out, "host: %s\n", hostContext(cfg))
	r := newReport()
	if err := workloads[cfg.Workload](cfg, r); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", cfg.Workload, cfg.Seed, err)
	}
	if r.attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	metrics := r.e2e
	if cfg.Trace {
		fillUnexercised(r)
		metrics = r.layer
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "note: %s\n", n)
	}
	for _, name := range sortedKeys(metrics) {
		m := metrics[name]
		fmt.Fprintf(out, "metric: %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	// error_rate is carried by attempted/failed in the result object;
	// printing it here keeps every end-to-end figure visible by name.
	fmt.Fprintf(out, "metric: %-28s %14.6g ratio (%d of %d operations)\n",
		"error_rate", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	if !cfg.Trace {
		for _, name := range wallClock {
			if m, ok := r.layer[name]; ok {
				fmt.Fprintf(out, "wall: %-30s %14.6g %s\n", name, m.Value, m.Unit)
			}
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "FAILED: %s\n", p)
	}
	return result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}, nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
