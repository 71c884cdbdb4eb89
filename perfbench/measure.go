package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process counters an op is
// charged with.
type usage struct {
	cpu      time.Duration // user + sys
	alloc    uint64        // cumulative heap bytes allocated
	gcCPU    float64       // cumulative GC CPU seconds
	gcCycles uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(usageSamples)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    usageSamples[0].Value.Uint64(),
		gcCPU:    usageSamples[1].Value.Float64(),
		gcCycles: usageSamples[2].Value.Uint64(),
	}
}

func (u usage) sub(b usage) usage {
	return usage{cpu: u.cpu - b.cpu, alloc: u.alloc - b.alloc, gcCPU: u.gcCPU - b.gcCPU, gcCycles: u.gcCycles - b.gcCycles}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks reads the machine-wide steal and total ticks from /proc/stat.
// Steal is time the hypervisor ran something else while this machine's
// CPUs wanted to run; it slows every timing a run takes.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:min(len(fields), 9)] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of CPU time stolen since the reading (s0, t0).
func stealPct(s0, t0 uint64) float64 {
	s1, t1 := cpuTicks()
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0) * 100
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linear-interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// percentile returns the pct-th percentile of xs and how many samples lie
// beyond it.
func percentile(xs []float64, pct int) (value float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, float64(pct)/100), len(s) * (100 - pct) / 100
}

// opLog accumulates the per-op measurements of one run.
type opLog struct {
	wall  []float64 // ms per op (serve-mix: from the request's due time)
	total usage
	ops   int
	// tailPct is the percentile op_ms_tail reports: the highest of
	// p75/p90/p99 with at least ten ops beyond it at the workload's run
	// length. It is fixed per workload, so a run a few ops longer or
	// shorter does not switch percentiles.
	tailPct int
}

func (l *opLog) add(wall time.Duration, u usage) {
	l.wall = append(l.wall, ms(wall))
	l.total.cpu += u.cpu
	l.total.alloc += u.alloc
	l.total.gcCPU += u.gcCPU
	l.total.gcCycles += u.gcCycles
	l.ops++
}

// endToEnd renders the untraced run's metrics, and a line naming the
// percentile op_ms_tail reports.
func (l *opLog) endToEnd(setup float64) (map[string]float64, string) {
	p50 := median(l.wall)
	t, beyond := percentile(l.wall, l.tailPct)
	n := float64(max(l.ops, 1))
	note := fmt.Sprintf("op_ms_tail is p%d: %d of %d ops beyond it", l.tailPct, beyond, len(l.wall))
	return map[string]float64{
		"setup_s":         setup,
		"op_ms_p50":       p50,
		"op_ms_tail":      t,
		"cpu_ms_per_op":   ms(l.total.cpu) / n,
		"alloc_mb_per_op": float64(l.total.alloc) / (1 << 20) / n,
		"peak_rss_mb":     peakRSSMB(),
	}, note
}

// timeSetup runs the workload's set-up reps times and returns the median
// wall time in seconds together with the last rep's state. Set-up is a
// fixed sequence at one worker, so it does not depend on the second core
// being free; a GC before each rep keeps earlier garbage out of it. A
// non-nil release frees each earlier rep's state outside the timing.
func timeSetup[T any](reps int, f func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := f()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i+1 < reps && release != nil {
			release(v)
		}
		last = v
	}
	runtime.GC()
	return last, median(times), nil
}
