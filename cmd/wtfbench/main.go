// Command wtfbench regenerates the paper's evaluation figures (§5 of
// "Investigating the Semantics of Futures in Transactional Memory Systems",
// PPoPP'21) and the §6 extras on the local host and prints one table per
// experiment. Micro costs are the package-local Go benchmarks; anything
// served by wtfd is measured by benchmark/.
//
// Usage:
//
//	wtfbench [flags]
//
//	-exp string    experiment: all, or one name from the experiments table
//	               below (an unknown name, e.g. -exp '?', lists them and exits 2)
//	-quick         run the scaled-down grids (default true; -quick=false uses paper-scale parameters)
//	-duration d    measurement window per data point (default 1s; quick: 250ms)
//	-array n       size of the read array (paper: 1000000)
//	-unit d        nominal cost of one "iter" of emulated work (default 200ns)
//	-mode string   work emulation: latency|busy (default latency; busy needs real cores)
//	-v             per-point progress output
//	-json          emit results as JSON objects instead of tables
//
// Profiling (for diagnosing hot-path regressions without code edits):
//
//	-cpuprofile f    write a CPU profile of the whole run to f
//	-memprofile f    write an allocation profile at exit to f
//	-mutexprofile f  write a mutex-contention profile at exit to f
//
// Absolute throughput depends on the host; the tables reproduce the paper's
// comparative shapes (see EXPERIMENTS.md for the expected shapes and the
// paper-vs-measured record).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wtftm/internal/bench"
	"wtftm/internal/spin"
)

type printer interface{ Print(io.Writer) }

// experiment is one -exp value and the driver behind it.
type experiment struct {
	name string
	run  func(cfg bench.Config, quick bool) (printer, error)
}

// driver pairs an experiment's parameter preset with its run function.
func driver[P any, R printer](preset func(quick bool) P, run func(bench.Config, P) (R, error)) func(bench.Config, bool) (printer, error) {
	return func(cfg bench.Config, quick bool) (printer, error) {
		return run(cfg, preset(quick))
	}
}

// experiments is every experiment, in the order -exp all runs them. The flag
// help, the unknown-name listing and the all loop are all built from it.
var experiments = []experiment{
	{"fig3", driver(bench.DefaultFig3, bench.RunFig3)},
	{"fig6left", driver(bench.DefaultFig6Left, bench.RunFig6Left)},
	{"fig6right", driver(bench.DefaultFig6Right, bench.RunFig6Right)},
	{"fig7", driver(bench.DefaultFig7, bench.RunFig7)},
	{"fig8", driver(bench.DefaultFig8, bench.RunFig8)},
	{"fig9", driver(bench.DefaultFig9, bench.RunFig9)},
	{"intruder", driver(bench.DefaultIntruder, bench.RunIntruder)},
	{"kmeans", driver(bench.DefaultKMeans, bench.RunKMeans)},
	{"segments", driver(bench.DefaultSegments, bench.RunSegments)},
	{"ablation", func(cfg bench.Config, _ bool) (printer, error) { return bench.RunAblation(cfg) }},
	{"aborts", driver(bench.DefaultAborts, bench.RunAborts)},
}

// expNames is "all|fig3|…": the values -exp accepts.
func expNames() string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(names, "|")
}

// pick returns the experiments -exp value exp runs, in table order; none
// for a name the table does not have.
func pick(exp string) []experiment {
	var todo []experiment
	for _, e := range experiments {
		if exp == "all" || exp == e.name {
			todo = append(todo, e)
		}
	}
	return todo
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wtfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: "+expNames())
		quick    = fs.Bool("quick", true, "scaled-down grids (set -quick=false for paper-scale parameters)")
		duration = fs.Duration("duration", 0, "measurement window per data point (0 = preset default)")
		array    = fs.Int("array", 0, "read array size (0 = preset default; paper: 1000000)")
		unit     = fs.Duration("unit", 200*time.Nanosecond, "nominal cost of one iter of emulated work")
		mode     = fs.String("mode", "latency", "work emulation: latency|busy")
		verbose  = fs.Bool("v", false, "per-point progress output")
		jsonOut  = fs.Bool("json", false, "emit results as JSON objects instead of tables")

		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile   = fs.String("memprofile", "", "write an allocation profile at exit to this file")
		mutexProfile = fs.String("mutexprofile", "", "write a mutex-contention profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	todo := pick(*exp)
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "wtfbench: unknown -exp %q; valid: %s\n", *exp, expNames())
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "wtfbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "wtfbench: start cpu profile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile(stderr, "mutex", *mutexProfile)
	}
	if *memProfile != "" {
		defer writeProfile(stderr, "allocs", *memProfile)
	}

	cfg := bench.Default()
	if *quick {
		cfg = bench.Quick()
		cfg.Duration = 250 * time.Millisecond
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *array > 0 {
		cfg.ArraySize = *array
	}
	cfg.Worker.Unit = *unit
	switch *mode {
	case "latency":
		cfg.Worker.Mode = spin.Latency
	case "busy":
		cfg.Worker.Mode = spin.Busy
	default:
		fmt.Fprintf(stderr, "wtfbench: unknown -mode %q\n", *mode)
		return 2
	}
	cfg.Out = stdout
	cfg.Verbose = *verbose

	banner := stdout
	if *jsonOut {
		banner = stderr
	}
	fmt.Fprintf(banner, "wtfbench: exp=%s quick=%v duration=%v array=%d work=%s/%v\n\n",
		*exp, *quick, cfg.Duration, cfg.ArraySize, cfg.Worker.Mode, *unit)

	for _, e := range todo {
		start := time.Now()
		res, err := e.run(cfg, *quick)
		if err == nil {
			if *jsonOut {
				err = json.NewEncoder(stdout).Encode(map[string]any{"experiment": e.name, "result": res})
			} else {
				res.Print(stdout)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "wtfbench: %s failed: %v\n", e.name, err)
			return 1
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "\n[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}

// writeProfile dumps a named runtime profile (after a GC, so allocation
// profiles reflect live data accurately).
func writeProfile(stderr io.Writer, name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "wtfbench: -%sprofile: %v\n", name, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(stderr, "wtfbench: write %s profile: %v\n", name, err)
	}
}
