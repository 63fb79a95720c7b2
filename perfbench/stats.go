package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// share is a/b, 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfCPU is the benchmark process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's VmHWM in MB.
func peakRSSMB() (float64, error) {
	const path = "/proc/self/status"
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fs := strings.Fields(rest)
			kb, err := strconv.ParseFloat(fs[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// resetPeakRSS resets this process's VmHWM to its current RSS, so the
// next peakRSSMB reads the peak from now on.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 9

// stealTicks is the host's steal and total CPU ticks from /proc/stat.
type stealTicks struct{ steal, total float64 }

func readSteal() stealTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t stealTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	return t
}

// since is the share of CPU time the host stole between t0 and t: a
// record of how contended the machine was during a run.
func (t stealTicks) since(t0 stealTicks) float64 {
	return share(t.steal-t0.steal, t.total-t0.total)
}

// memDelta measures heap allocations across fn: objects and bytes.
func memDelta(fn func()) (allocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// medianSetup runs setup n times and returns the median wall time in
// seconds with the state of the last repetition; release discards each
// earlier state. Each repetition starts from a collected heap, so the
// garbage of the one before does not land in its time.
func medianSetup[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		st    T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			release(st)
		}
		runtime.GC()
		start := time.Now()
		s, err := setup()
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return st, 0, err
		}
		st = s
	}
	return st, median(times), nil
}

// latencySummary reports the end-to-end latency metrics from per-op
// latencies in ms, in time order: windowQuantile of the p50 and p99.
func latencySummary(o *outcome, lat []float64) {
	o.values["latency_p50_ms"] = windowQuantile(lat, 0.50)
	o.values["latency_p99_ms"] = windowQuantile(lat, 0.99)
	o.detail["latency_samples"] = len(lat)
}

// latWindow is the op count per latency window: at least ten samples
// lie beyond each window's p99.
const latWindow = 1000

// windowQuantile is the median, over consecutive windows of latWindow
// ops (the remainder joins the last window), of each window's
// q-quantile. A burst of host contention that hits a few windows then
// moves the run's figure far less than a quantile over all ops. With
// fewer than two windows' worth of ops it is the plain quantile.
func windowQuantile(lat []float64, q float64) float64 {
	if len(lat) < 2*latWindow {
		return quantile(append([]float64(nil), lat...), q)
	}
	var qs []float64
	for lo := 0; lo+latWindow <= len(lat); lo += latWindow {
		hi := lo + latWindow
		if len(lat)-hi < latWindow {
			hi = len(lat)
		}
		qs = append(qs, quantile(append([]float64(nil), lat[lo:hi]...), q))
	}
	return median(qs)
}
