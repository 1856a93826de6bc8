package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice, which arises only when
// every operation failed and the run is reported incorrect anyway.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread gate uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile of xs; 0 for an
// empty slice, as median.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summarizeRepeats prints each metric's median and quartiles across
// runs and returns one result whose metrics are the medians.
func summarizeRepeats(runs []result, out io.Writer) result {
	final := result{Correct: true, Metrics: map[string]metric{}}
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	fmt.Fprintf(out, "repeat: %-28s %14s %14s %14s %8s  (%d runs)\n", "metric", "median", "q1", "q3", "iqr/med", len(runs))
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		vs := values[name]
		med := median(vs)
		q1, q3 := quartiles(vs)
		fmt.Fprintf(out, "repeat: %-28s %14.6g %14.6g %14.6g %8.4f  %s\n", name, med, q1, q3, (q3-q1)/math.Abs(med), units[name])
		final.Metrics[name] = metric{med, units[name]}
	}
	return final
}

// hostContext describes the machine and build a result was measured on.
func hostContext(cfg config) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s workload=%s seed=%d seconds=%g trace=%t",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit,
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
}

// cpuModel reads the processor name the kernel reports; "unknown"
// where /proc/cpuinfo is absent.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds is the process's user plus system CPU time. Time the
// hypervisor steals from the vCPUs is not charged to the process, so
// CPU time stays steady on a shared host where wall time does not.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealSeconds is the CPU time the hypervisor has stolen from this
// machine's vCPUs since boot, summed over CPUs (the steal column of
// /proc/stat); 0 where the kernel does not report it.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// clock reads wall, process CPU and stolen time together, so a
// measured span reports all three.
type clock struct {
	wall       time.Time
	cpu, steal float64
}

func now() clock { return clock{time.Now(), cpuSeconds(), stealSeconds()} }

// since returns the wall and CPU seconds since c.
func (c clock) since() (wall, cpu float64) {
	return time.Since(c.wall).Seconds(), cpuSeconds() - c.cpu
}

// stealShare is the share of the host's CPU time stolen since c.
func (c clock) stealShare() float64 {
	wall := time.Since(c.wall).Seconds()
	return (stealSeconds() - c.steal) / (wall * float64(runtime.NumCPU()))
}
