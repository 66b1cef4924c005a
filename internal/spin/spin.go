// Package spin emulates the paper's "iter" knob: a configurable amount of
// CPU-bound computation between two memory accesses (§5.1). Two modes are
// provided:
//
//   - Busy: an actual spin loop, faithful to the paper's benchmark. It only
//     produces parallel speedups when real cores are available.
//   - Latency: the same work budget expressed as simulated latency
//     (sleeping). Latency-shaped work overlaps under goroutine concurrency
//     even on a single core, which preserves the comparative shapes of the
//     paper's experiments on core-starved hosts (see DESIGN.md,
//     substitutions).
package spin

import (
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects how Worker.Do burns its budget.
type Mode int

const (
	// Latency sleeps for Unit per iteration (default).
	Latency Mode = iota
	// Busy spins for roughly Unit per iteration.
	Busy
)

func (m Mode) String() string {
	if m == Busy {
		return "busy"
	}
	return "latency"
}

// Worker converts iteration counts into work.
type Worker struct {
	// Mode selects spinning vs sleeping.
	Mode Mode
	// Unit is the cost of one iteration. Zero selects DefaultUnit.
	Unit time.Duration
}

// DefaultUnit approximates the per-iteration cost of the paper's spin loop
// (a handful of nanoseconds).
const DefaultUnit = 5 * time.Nanosecond

// sink defeats dead-code elimination of the busy loop.
var sink atomic.Uint64

// Do burns the budget of iters iterations.
func (w Worker) Do(iters int) {
	if iters <= 0 {
		return
	}
	unit := w.Unit
	if unit <= 0 {
		unit = DefaultUnit
	}
	d := time.Duration(iters) * unit
	switch w.Mode {
	case Busy:
		spinFor(iters)
	default:
		if d > 0 {
			time.Sleep(d)
		}
	}
}

// Duration reports the nominal cost of iters iterations.
func (w Worker) Duration(iters int) time.Duration {
	unit := w.Unit
	if unit <= 0 {
		unit = DefaultUnit
	}
	return time.Duration(iters) * unit
}

// SleepGranularity is the smallest sleep a Meter issues. Batching emulated
// latency into chunks well above the OS timer wake-up latency keeps the
// total budget accurate even when Do is called with sub-microsecond
// amounts; without batching, the measured cost of tiny sleeps is dominated
// by scheduler/timer noise and even varies with unrelated runtime activity.
const SleepGranularity = 200 * time.Microsecond

// Meter accumulates a single goroutine's emulated-work debt and pays it
// accurately: debts of at least SleepGranularity are slept (and therefore
// overlap with other goroutines' work), while sub-granularity remainders
// are burned with a calibrated busy loop, whose cost is accurate down to
// microseconds. Create one Meter per goroutine (they are not safe for
// concurrent use); call Flush before the goroutine's work item completes.
type Meter struct {
	w    Worker
	debt time.Duration
}

// Meter returns a fresh debt accumulator for this worker.
func (w Worker) Meter() *Meter { return &Meter{w: w} }

// Do adds iters iterations of work, paying the accumulated debt when it
// exceeds the sleep granularity. Busy mode spins immediately.
func (m *Meter) Do(iters int) {
	if iters <= 0 {
		return
	}
	if m.w.Mode == Busy {
		spinFor(iters)
		return
	}
	m.debt += m.w.Duration(iters)
	if m.debt >= SleepGranularity {
		time.Sleep(m.debt)
		m.debt = 0
	}
}

// Func returns a closure performing iters iterations per call — the shape
// the benchmark substrates accept as their per-access work hook.
func (m *Meter) Func(iters int) func() {
	return func() { m.Do(iters) }
}

// Flush pays any remaining (sub-granularity) debt with a busy loop.
func (m *Meter) Flush() {
	if m.debt > 0 {
		busyFor(m.debt)
		m.debt = 0
	}
}

// Spin-loop calibration: iterations per microsecond, measured once.
var (
	calOnce    sync.Once
	itersPerUs float64
)

func calibrate() {
	const probe = 1 << 21
	start := time.Now()
	spinFor(probe)
	el := time.Since(start)
	if el <= 0 {
		el = time.Nanosecond
	}
	itersPerUs = float64(probe) / (float64(el) / float64(time.Microsecond))
	if itersPerUs < 1 {
		itersPerUs = 1
	}
}

// busyFor burns approximately d of CPU time.
func busyFor(d time.Duration) {
	if d <= 0 {
		return
	}
	calOnce.Do(calibrate)
	spinFor(int(float64(d) / float64(time.Microsecond) * itersPerUs))
}

// spinFor runs a linear congruential generator for n steps.
func spinFor(n int) {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink.Add(x & 1)
}
