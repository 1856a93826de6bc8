package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// endToEndUnits names every metric the plain run prints, with its
// unit; BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"solve_cpu_s": "s",
	"model_s":     "s",
	"alloc_mb":    "MB",
	"setup_s":     "s",
}

// runTiny runs one tiny workload and returns its stdout and the
// decoded result line.
func runTiny(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"--tiny", "--seconds", "0.3", "--seed", "3"}, args...)
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return out.String(), res
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			want := endToEndUnits
			if trace == "1" {
				want = layerUnits
			}
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				out, res := runTiny(t, "--workload", wl, "--trace", trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v %q, want a finite value in %q", name, m.Value, m.Unit, unit)
					}
					if !strings.Contains(out, "metric: "+name+" ") {
						t.Errorf("metric %s not printed by name", name)
					}
				}
				if trace == "0" {
					if !strings.Contains(out, "metric: error_rate") {
						t.Error("error_rate not printed")
					}
					for _, name := range wallClock {
						if !strings.Contains(out, "wall: "+name+" ") {
							t.Errorf("wall-clock %s not printed", name)
						}
					}
				}
				if !strings.Contains(out, "host: nproc=") {
					t.Error("host context not printed")
				}
			})
		}
	}
}

// TestClientsNeverExceedNproc drives the closed loop against a stub
// server that records how many fits are in flight at once.
func TestClientsNeverExceedNproc(t *testing.T) {
	var inFlight, peak atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		w.Write([]byte(`{"converged":true,"rounds":1}`))
	}))
	defer stub.Close()
	outs, _ := drive(config{Seconds: 0.2, Tiny: true}, &liveServer{ts: stub})
	if len(outs) == 0 {
		t.Fatal("no fit was sent")
	}
	if p := peak.Load(); p > int64(runtime.NumCPU()) || p > serveClients {
		t.Fatalf("%d fits in flight at once on %d cores", p, runtime.NumCPU())
	}
	if clientCount() > runtime.NumCPU() {
		t.Fatalf("clientCount %d > nproc %d", clientCount(), runtime.NumCPU())
	}
}

func TestRepeatPrintsMedianAndQuartiles(t *testing.T) {
	out, res := runTiny(t, "--workload", "serve-path", "--repeat", "3")
	if !strings.Contains(out, "repeat: metric") || !strings.Contains(out, "q1") || !strings.Contains(out, "q3") {
		t.Fatalf("no repeat summary header:\n%s", out)
	}
	for name := range endToEndUnits {
		if !strings.Contains(out, "repeat: "+name+" ") {
			t.Errorf("no repeat summary for %s", name)
		}
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("repeat result lacks %s", name)
		}
	}
	if strings.Count(out, "host: nproc=") != 3 {
		t.Errorf("want the host context of each of the 3 runs:\n%s", out)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v", q1, q3, median(xs))
	}
	if p := percentile(xs, 95); p != 10 {
		t.Fatalf("p95 = %v", p)
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tall-tcp", "--trace", "2"},
		{"--workload", "tall-tcp", "--seconds", "0"},
		{"--workload", "tall-tcp", "--repeat", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run %v: want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed %q", args, out.String())
		}
	}
}

// TestBenchmarkJSONListsEmittedMetrics keeps BENCHMARK.json and the
// metrics the runs print in step.
func TestBenchmarkJSONListsEmittedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, listed []struct{ Name, Unit string }, want map[string]string) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, runs emit %d", what, len(listed), len(want))
		}
		for _, m := range listed {
			if want[m.Name] != m.Unit {
				t.Errorf("%s: %s listed in %q, emitted in %q", what, m.Name, m.Unit, want[m.Name])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndUnits)
	same("per_layer", b.PerLayer, layerUnits)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "tall-tcp,wide-lean-tcp,serve-path" || len(workloads) != len(names) {
		t.Errorf("workloads %v do not match the runners %v", names, workloadNames())
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("workload %s has no runner", n)
		}
	}
}
