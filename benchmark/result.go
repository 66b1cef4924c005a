package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	root     string // checkout root
	buildDir string // where wtfd is built
	outDir   string // traces, data directories, result files
	seed     uint64
	trace    bool
	pin      int // the CPU the benchmark and its children are confined to

	warm      time.Duration
	closed    time.Duration // served: closed-loop phase
	open      time.Duration // served: open-loop phase; 0 leaves it out
	setupReps int

	ladderOps  int
	rungBudget time.Duration // cap on each rung that waits for network or disk
	bankChunks int

	wtfdBin string
	buildS  float64 // seconds the wtfd build took (once per invocation)
	report  io.Writer
}

// bankDur is the measured time of bank-futures: what a served workload
// spends in its two phases together.
func (c *config) bankDur() time.Duration { return c.closed + c.open }

// phases sets the phase lengths for a run that measures for seconds. An
// untraced run reports the gated metrics, which all come from the closed
// loop, so the closed loop gets all of the time: the longer it is, the
// steadier they are. A traced run gives a quarter each to the closed and
// the open loop (for the latencies and the STATS counters) and keeps the
// rest for the ladder.
func (c *config) phases(seconds float64, trace bool) {
	d := time.Duration(seconds * float64(time.Second))
	c.warm = d / 10
	c.closed, c.open = d, 0
	if trace {
		c.closed, c.open = d/4, d/4
	}
}

// metricValue is one measured metric. Samples is how many observations the
// value summarizes (0 where the notion does not apply).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`

	report io.Writer
	tables strings.Builder // the ladder's tables, printed after the metrics
}

func newRunResult(cfg *config, w *workload) *runResult {
	return &runResult{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		Seconds: (cfg.closed + cfg.open).Seconds(), Metrics: map[string]metricValue{}, report: cfg.report}
}

func (r *runResult) set(name string, v float64, unit string, samples int64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, Samples: samples}
}

func (r *runResult) merge(m map[string]metricValue) {
	for k, v := range m {
		r.Metrics[k] = v
	}
}

func (r *runResult) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// setRates records throughput_ops_s and cpu_us_per_op from the readings of
// a closed-loop phase, each as the median over the windows between them.
// A window's length is its wall-clock time less what the host stole from
// the CPU meanwhile: stolen time is the neighbours' load, not the program's
// speed. The whole-phase means go to the notes for reference.
func (r *runResult) setRates(rs []reading) error {
	var rates, cpus []float64
	for i := 1; i < len(rs); i++ {
		a, b := rs[i-1], rs[i]
		ran := time.Duration(b.t-a.t) - (b.steal - a.steal)
		if b.ops == a.ops || ran <= 0 {
			continue // nothing completed (or could): no rate to speak of
		}
		rates = append(rates, float64(b.ops-a.ops)/ran.Seconds())
		cpus = append(cpus, float64((b.cpu-a.cpu).Nanoseconds())/1e3/float64(b.ops-a.ops))
	}
	if len(rates) == 0 {
		return fmt.Errorf("no operation completed in the measured phase")
	}
	first, last := rs[0], rs[len(rs)-1]
	ops, wall := last.ops-first.ops, time.Duration(last.t-first.t)
	r.set("throughput_ops_s", median(rates), "ops/s", ops)
	r.set("cpu_us_per_op", median(cpus), "us", ops)
	r.set("host.steal_ratio", (last.steal-first.steal).Seconds()/wall.Seconds(), "ratio", int64(len(rates)))
	r.note("whole phase: %.0f ops/s and %.3f us CPU per op over %.2fs of wall clock (%d ops, %d windows), of which the host stole %.2fs",
		float64(ops)/wall.Seconds(), float64((last.cpu-first.cpu).Nanoseconds())/1e3/float64(ops), wall.Seconds(), ops, len(rates), (last.steal - first.steal).Seconds())
	return nil
}

// minLatencySamples is the fewest samples a latency class needs before its
// percentiles are reported.
const minLatencySamples = 1000

func (r *runResult) setLatency(class string, s latencySummary) {
	if s.samples < minLatencySamples {
		r.note("%s latency: %d samples, fewer than %d — not reported", class, s.samples, minLatencySamples)
		return
	}
	r.set(class+"_p50_us", s.p50, "us", int64(s.samples))
	r.set(class+"_p99_us", s.p99, "us", int64(s.samples))
	r.note("%s latency over the whole phase: p50 %.1f us, p99 %.1f us, max %.1f us (%d samples)", class, s.allP50, s.allP99, s.allMax, s.samples)
}

// print writes the human-readable report of the run.
func (r *runResult) print(decl *benchDecl) {
	w := r.report
	fmt.Fprintf(w, "\n== %s  seed=%d  measured=%.1fs  trace=%v  correct=%v  attempted=%d  failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Correct, r.Attempted, r.Failed)
	line := func(name string) {
		if m, ok := r.Metrics[name]; ok {
			fmt.Fprintf(w, "  %-34s %16.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "  %-34s %16s\n", name, "absent")
		}
	}
	listed := map[string]bool{}
	fmt.Fprintln(w, " end-to-end (gated):")
	for _, d := range decl.EndToEnd {
		line(d.Name)
		listed[d.Name] = true
	}
	fmt.Fprintln(w, " per-layer and diagnostics (not gated):")
	for _, d := range decl.PerLayer {
		line(d.Name)
		listed[d.Name] = true
	}
	var extra []string
	for name := range r.Metrics {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		line(name)
	}
	io.WriteString(w, r.tables.String())
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// lastLine is the one-line JSON result the driver reads: the gated metrics
// of an untraced run, the per-layer metrics of a traced one. A per-layer
// metric that does not apply to the workload reads 0 there (the report
// above says "absent"); a gated metric that is missing is an error.
func (r *runResult) lastLine(decl *benchDecl) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := decl.EndToEnd
	if r.Trace {
		list = decl.PerLayer
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]mv{}}
	for _, d := range list {
		m, ok := r.Metrics[d.Name]
		if !ok && !r.Trace {
			return "", fmt.Errorf("workload %s did not produce gated metric %s", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = mv{m.Value, d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// hostContext is where and on what the runs of a result file were made.
type hostContext struct {
	Commit         string `json:"commit"`
	GoVersion      string `json:"go_version"`
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs_benchmark"`
	GOMAXPROCSWtfd int    `json:"gomaxprocs_wtfd"`
	PinnedCPU      int    `json:"pinned_cpu"`
	CPUModel       string `json:"cpu_model"`
	Kernel         string `json:"kernel"`
}

// readHostContext describes the host. runtime.NumCPU is what the process
// was allowed at its start, before it confined itself to CPU pin.
func readHostContext(root string, pin int) hostContext {
	h := hostContext{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOMAXPROCSWtfd: wtfdProcs, PinnedCPU: pin, CPUModel: "unknown", Kernel: "unknown"}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// resultFile is a set of runs, the unit -compare works on.
type resultFile struct {
	Host   hostContext  `json:"host"`
	Bounds []metricDecl `json:"bounds"` // the gated metrics and their bounds when the runs were made
	Runs   []*runResult `json:"runs"`
}

// appendResults adds runs to the result file at path, creating it if need
// be, so that repeated invocations build up one comparable set.
func appendResults(path string, host hostContext, decl *benchDecl, runs []*runResult) error {
	rf := resultFile{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	rf.Host, rf.Bounds = host, decl.EndToEnd
	rf.Runs = append(rf.Runs, runs...)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
