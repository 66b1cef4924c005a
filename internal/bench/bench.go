// Package bench regenerates the paper's evaluation (§5): one experiment
// driver per figure, each sweeping the paper's parameters over the engines
// under comparison — WTF-TM (WO futures), JTF (SO futures), JVSTM (the bare
// multi-versioned STM, no intra-transaction parallelism) and, for Fig. 6,
// plain non-transactional futures.
//
// Absolute numbers depend on the host; the drivers exist to reproduce the
// comparative shapes: who wins, by what factor, and where the crossovers
// fall. Every driver accepts a Config so the paper-scale parameters
// (cmd/wtfbench) and the test-scale parameters (bench_test.go) share one
// code path.
package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"wtftm/internal/core"
	"wtftm/internal/mvstm"
	"wtftm/internal/spin"
	"wtftm/internal/workload"
)

// Config scales an experiment.
type Config struct {
	// Worker emulates the paper's iter knob (CPU-bound work per access).
	Worker spin.Worker
	// Duration is the measurement window per point.
	Duration time.Duration
	// ArraySize is the size of the read array (1M in the paper).
	ArraySize int
	// Verbose echoes per-point progress to Out.
	Verbose bool
	// Out receives the printed tables (defaults to io.Discard in runs that
	// only want the result structs).
	Out io.Writer
}

// Quick returns a configuration sized for unit benchmarks: small arrays,
// short windows, microsecond-scale work units.
func Quick() Config {
	return Config{
		Worker:    spin.Worker{Mode: spin.Latency, Unit: 200 * time.Nanosecond},
		Duration:  150 * time.Millisecond,
		ArraySize: 4096,
	}
}

// Default returns the configuration cmd/wtfbench uses out of the box:
// larger than Quick, still minutes-not-hours on a laptop.
func Default() Config {
	return Config{
		Worker:    spin.Worker{Mode: spin.Latency, Unit: 200 * time.Nanosecond},
		Duration:  time.Second,
		ArraySize: 1 << 17,
	}
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) progress(format string, args ...any) {
	if c.Verbose {
		fmt.Fprintf(c.out(), "# "+format+"\n", args...)
	}
}

// Engine labels the systems under comparison.
type Engine string

const (
	// WTF is WTF-TM: weakly ordered transactional futures.
	WTF Engine = "WTF"
	// JTF is the strongly ordered baseline.
	JTF Engine = "JTF"
	// JVSTM is the bare MV-STM without intra-transaction parallelism.
	JVSTM Engine = "JVSTM"
	// NT is plain non-transactional futures (goroutines + channels).
	NT Engine = "NT"
)

// newSystem builds a fresh engine of the given kind over a fresh STM.
func newSystem(e Engine) (*core.System, *mvstm.STM) {
	stm := mvstm.New()
	switch e {
	case WTF:
		return core.New(stm, core.Options{Ordering: core.WO, Atomicity: core.LAC}), stm
	case JTF:
		return core.New(stm, core.Options{Ordering: core.SO, Atomicity: core.LAC}), stm
	default:
		return nil, stm
	}
}

// measure runs `workers` goroutines, each repeatedly invoking body until the
// deadline, and returns the number of completed invocations and the elapsed
// wall-clock time. body reports how many logical operations it completed.
func measure(workers int, d time.Duration, body func(worker int, rng *workload.RNG) (int, error)) (ops int64, elapsed time.Duration, err error) {
	var (
		done    atomic.Bool
		total   atomic.Int64
		firstMu sync.Mutex
		first   error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(w)*0x9E3779B97F4A7C15 + 1)
			for !done.Load() {
				n, err := body(w, rng)
				if err != nil {
					firstMu.Lock()
					if first == nil {
						first = err
					}
					firstMu.Unlock()
					return
				}
				total.Add(int64(n))
			}
		}(w)
	}
	time.Sleep(d)
	done.Store(true)
	wg.Wait()
	return total.Load(), time.Since(start), first
}

// Throughput returns operations per second.
func Throughput(ops int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// Rate returns part/total, or 0 when total is 0. It is the abort-rate
// helper: aborts / (aborts + commits).
func Rate(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// Speedup returns x/base, or 0 when base is 0.
func Speedup(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// table is a minimal aligned-column printer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) print(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// f formats a float for table cells.
func f(x float64) string { return fmt.Sprintf("%.2f", x) }
