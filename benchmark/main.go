// Command benchmark is the repository's benchmark: four named workloads,
// three of them against the real wtfd binary run as a child process and
// driven over raw wire frames, one against the futures engine in-process;
// correctness oracles on every reply; end-to-end metrics from exact stored
// samples; and, with -trace 1, a per-layer ladder replay with spans. See
// README.md for the vocabulary and BENCHMARK.json for what is gated.
//
//	bash benchmark/run.sh -seed 7                 all four workloads
//	bash benchmark/run.sh -workload multi-hot -seed 7 -seconds 20 -trace 1
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		root    = flag.String("root", ".", "checkout root (holds go.mod, cmd/wtfd and BENCHMARK.json)")
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Uint64("seed", 1, "seed for request streams, keys, values and due times")
		seconds = flag.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: also replay the per-layer ladder with spans and report the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "1 s phases and a 2000-op ladder: checks the oracles, measures nothing")
		out     = flag.String("out", "", "result file to append the runs to (default: benchmark/out/results.json)")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fatal("%v", err)
	}
	decl, err := loadDecl(abs)
	if err != nil {
		fatal("%v", err)
	}
	run := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		run = []*workload{w}
	}

	cfg := &config{root: abs, buildDir: filepath.Join(abs, ".bench_build"), outDir: filepath.Join(abs, "benchmark", "out"),
		seed: *seed, trace: *trace != 0, setupReps: 3, ladderOps: 20000, rungBudget: 2 * time.Second,
		bankChunks: bankChunks, report: os.Stdout}
	switch {
	case *smoke:
		cfg.closed, cfg.open = time.Second, time.Second
		cfg.warm, cfg.setupReps, cfg.ladderOps, cfg.rungBudget = 300*time.Millisecond, 1, 2000, 500*time.Millisecond
	case *seconds > 0:
		cfg.phases(*seconds, cfg.trace)
	default:
		cfg.phases(float64(decl.RunSeconds), cfg.trace)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		fatal("%v", err)
	}

	// A run that hangs must not outlive the driver's patience.
	go func() {
		time.Sleep(170 * time.Second * time.Duration(len(run)))
		fatal("watchdog: run exceeded its time limit")
	}()

	// Build first, on every CPU there is; measure on one.
	for _, w := range run {
		if w.served && cfg.wtfdBin == "" {
			t0 := time.Now()
			if cfg.wtfdBin, err = buildWtfd(cfg.root, cfg.buildDir); err != nil {
				fatal("%v", err)
			}
			cfg.buildS = time.Since(t0).Seconds()
		}
	}
	if cfg.pin, err = pinToOneCPU(); err != nil {
		fatal("%v", err)
	}
	runtime.GOMAXPROCS(1)

	host := readHostContext(abs, cfg.pin)
	fmt.Printf("benchmark: commit %s, %s, nproc %d, pinned to CPU %d, GOMAXPROCS %d (wtfd %d), %s, kernel %s, seed %d\n",
		host.Commit, host.GoVersion, host.NProc, host.PinnedCPU, host.GOMAXPROCS, host.GOMAXPROCSWtfd, host.CPUModel, host.Kernel, *seed)

	var results []*runResult
	ok := true
	for _, w := range run {
		var res *runResult
		if w.served {
			res, err = runServed(cfg, w)
		} else {
			res, err = runBank(cfg, w)
		}
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		res.print(decl)
		results = append(results, res)
		ok = ok && res.Correct
	}

	path := *out
	if path == "" {
		path = filepath.Join(cfg.outDir, "results.json")
	}
	if err := appendResults(path, host, decl, results); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\nresults appended to %s\n", path)
	for _, res := range results {
		line, err := res.lastLine(decl)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(line)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(2)
}
