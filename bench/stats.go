package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile of sorted values by linear
// interpolation; q = 1 is the maximum. Empty input yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of values and returns its middle.
func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return percentile(s, 0.5)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) yields (exclusive method) — the
// statistic the benchmark's acceptance rule is written in.
func quartileSpread(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1 // 0-based position
		lo := int(math.Floor(pos))
		lo = max(0, min(lo, n-2))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// selfCPUSeconds is this process's user + system CPU time so far.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// procCPUSeconds is another process's user + system CPU time from
// /proc/<pid>/stat, in the kernel's 100 Hz clock ticks.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may itself
	// contain spaces: utime and stime are the 14th and 15th overall.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (ut + st) / 100, nil
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM);
// pid is a number or "self".
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
}

// resetPeakRSS sets a process's resident-set high-water mark back to
// its current resident set (clear_refs(5), Linux 4.0+), so that the next
// VmHWM reading is the peak since this call.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

var kernelSink uint64

// cpuKernelMS times a fixed integer loop. Printed before and after a
// window to show whether the machine itself changed speed; it explains a
// bad run and never rescales a metric.
func cpuKernelMS() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	kernelSink = x
	return time.Since(t0).Seconds() * 1e3
}
