package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now()

// now returns nanoseconds on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// percentile returns the q-quantile of sorted by nearest rank: the smallest
// sample with at least q of the samples at or below it. Exact — no
// interpolation, no buckets.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q * float64(len(sorted)))
	if float64(rank) < q*float64(len(sorted)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// median of xs (xs is sorted in place); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// driver uses to judge run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(append([]float64(nil), xs...))
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// windowed collects latency samples per measurement window, so a run can
// report the median window's percentile: one stall of the shared host then
// costs one window, not the run's p99.
type windowed struct{ win [][]int64 }

func newWindowed(windows, perWindow int) *windowed {
	w := &windowed{win: make([][]int64, windows)}
	for i := range w.win {
		w.win[i] = make([]int64, 0, perWindow)
	}
	return w
}

func (w *windowed) add(window int, v int64) {
	if window >= 0 && window < len(w.win) {
		w.win[window] = append(w.win[window], v)
	}
}

// latencySummary is one op class's open-loop result.
type latencySummary struct {
	samples  int
	p50, p99 float64 // µs: median over windows of the window's percentile
	allP50   float64 // µs: the whole phase's exact percentiles, for reference
	allP99   float64
	allMax   float64
}

// summarize merges the per-connection collectors of one class.
func summarize(parts []*windowed) latencySummary {
	var s latencySummary
	if len(parts) == 0 {
		return s
	}
	var all []int64
	var p50s, p99s []float64
	for wi := range parts[0].win {
		var merged []int64
		for _, p := range parts {
			merged = append(merged, p.win[wi]...)
		}
		if len(merged) == 0 {
			continue
		}
		sortInt64(merged)
		p50s = append(p50s, float64(percentile(merged, 0.50))/1e3)
		p99s = append(p99s, float64(percentile(merged, 0.99))/1e3)
		all = append(all, merged...)
	}
	s.samples = len(all)
	if s.samples == 0 {
		return s
	}
	sortInt64(all)
	s.p50, s.p99 = median(p50s), median(p99s)
	s.allP50 = float64(percentile(all, 0.50)) / 1e3
	s.allP99 = float64(percentile(all, 0.99)) / 1e3
	s.allMax = float64(all[len(all)-1]) / 1e3
	return s
}

// userHZ is the unit of utime/stime in /proc/<pid>/stat; Linux fixes it at
// 100 for user space on every architecture Go runs on.
const userHZ = 100

// procCPU returns the user+system CPU time a process has consumed.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reading is the state of a closed-loop phase's counters at one instant.
type reading struct {
	t     int64         // monotonic clock
	ops   int64         // operations completed so far
	cpu   time.Duration // CPU time the process under test has used so far
	steal time.Duration // time the host has taken from the benchmark's CPU so far
}

// meter reads the counters of a closed-loop phase once per window, so that
// throughput and CPU per operation can be reported as the median window's:
// a burst of interference from a neighbour on the shared host then costs
// the windows it hits, not the run.
type meter struct {
	ops func() int64
	cpu func() time.Duration
	pin int // the CPU the benchmark and the server run on
}

func (m *meter) read() reading {
	return reading{t: now(), ops: m.ops(), cpu: m.cpu(), steal: cpuSteal(m.pin)}
}

// watch takes a reading now and one at the end of each of the windows that
// fit dur: whole seconds, or all of a shorter dur.
func (m *meter) watch(dur time.Duration) []reading {
	n, win := int(dur/time.Second), time.Second
	if n < 1 {
		n, win = 1, dur
	}
	rs := append(make([]reading, 0, n+1), m.read())
	for i := 1; i <= n; i++ {
		time.Sleep(time.Duration(rs[0].t + int64(i)*int64(win) - now()))
		rs = append(rs, m.read())
	}
	return rs
}

// procStatusKB reads one "Name:   123 kB" line of /proc/<pid>/status.
func procStatusKB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// peakRSSMB is VmHWM of pid in MB.
func peakRSSMB(pid int) float64 {
	kb, err := procStatusKB(pid, "VmHWM")
	if err != nil {
		return 0
	}
	return float64(kb) / 1024
}
