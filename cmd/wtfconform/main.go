// Command wtfconform explores schedules of generated transactional-futures
// programs under a deterministic cooperative scheduler and checks every
// explored execution against the FSG serializability oracle
// (internal/conform).
//
// Usage:
//
//	wtfconform [-mode dfs|pct] [-seed n] [-seeds n] [-budget n]
//	           [-ordering wo|so|both] [-atomicity lac|gac|both]
//	           [-threads n] [-txns n] [-ops n] [-boxes n] [-futures n]
//	           [-depth n] [-pct-depth d] [-timeout d] [-shrink n] [-v]
//	wtfconform -replay "i,i,i,..." [program flags]
//
// dfs enumerates the schedule tree of each program exhaustively (bounded by
// -budget executions per program); pct samples -budget random PCT schedules
// per program. Each (seed, ordering, atomicity) combination is one program.
// On the first violation the repro is shrunk, replayed twice to confirm
// determinism, printed with its replay command line, and the process exits 1.
// -replay re-runs one program under an exact recorded schedule trace.
//
// The fixed-seed sweeps in scripts/ci.sh must find zero violations on the
// engine. The mutation ledger (internal/mutant) holds the deliberately broken
// builds they must catch; those run in-process, without this command:
// go test -tags mutants -run TestMutantsCaught ./internal/conform/.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wtftm/internal/conform"
	"wtftm/internal/core"
)

func main() {
	var (
		mode      = flag.String("mode", "dfs", "exploration mode: dfs|pct")
		seed      = flag.Int64("seed", 1, "first program seed")
		seeds     = flag.Int("seeds", 8, "number of program seeds to sweep")
		budget    = flag.Int("budget", 300, "max executions per program")
		ordering  = flag.String("ordering", "both", "futures ordering: wo|so|both")
		atomicity = flag.String("atomicity", "both", "escaping-future atomicity: lac|gac|both")
		threads   = flag.Int("threads", 1, "concurrent top-level transaction drivers")
		txns      = flag.Int("txns", 1, "top-level transactions per driver")
		ops       = flag.Int("ops", 6, "operations per transaction body")
		boxes     = flag.Int("boxes", 2, "shared transactional boxes")
		futures   = flag.Int("futures", 2, "max futures per transaction")
		depth     = flag.Int("depth", 1, "future nesting depth")
		pctDepth  = flag.Int("pct-depth", 3, "PCT priority-change points")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-execution watchdog")
		shrinkB   = flag.Int("shrink", 200, "shrinking budget per candidate (0 = no shrinking)")
		replay    = flag.String("replay", "", "replay this comma-separated choice trace instead of exploring")
		verbose   = flag.Bool("v", false, "per-program progress")
	)
	flag.Parse()

	orderings, err := parseOrderings(*ordering)
	if err == nil {
		var atoms []core.Atomicity
		atoms, err = parseAtomicities(*atomicity)
		if err == nil {
			base := conform.Params{
				Threads: *threads, TxPerThread: *txns, OpsPerTx: *ops,
				Boxes: *boxes, MaxFutures: *futures, Depth: *depth,
			}
			if *replay != "" {
				os.Exit(runReplay(base, orderings[0], atoms[0], *seed, *replay, *timeout))
			}
			os.Exit(runSweep(base, orderings, atoms, *mode, *seed, *seeds, *budget, *pctDepth, *shrinkB, *timeout, *verbose))
		}
	}
	fmt.Fprintf(os.Stderr, "wtfconform: %v\n", err)
	os.Exit(2)
}

func parseOrderings(s string) ([]core.Ordering, error) {
	switch s {
	case "wo":
		return []core.Ordering{core.WO}, nil
	case "so":
		return []core.Ordering{core.SO}, nil
	case "both":
		return []core.Ordering{core.WO, core.SO}, nil
	}
	return nil, fmt.Errorf("unknown -ordering %q", s)
}

func parseAtomicities(s string) ([]core.Atomicity, error) {
	switch s {
	case "lac":
		return []core.Atomicity{core.LAC}, nil
	case "gac":
		return []core.Atomicity{core.GAC}, nil
	case "both":
		return []core.Atomicity{core.LAC, core.GAC}, nil
	}
	return nil, fmt.Errorf("unknown -atomicity %q", s)
}

func runSweep(base conform.Params, ords []core.Ordering, atoms []core.Atomicity,
	mode string, seed int64, seeds, budget, pctDepth, shrinkBudget int,
	timeout time.Duration, verbose bool) int {

	start := time.Now()
	programs, executions := 0, 0
	for _, ord := range ords {
		for _, atom := range atoms {
			for s := seed; s < seed+int64(seeds); s++ {
				p := base
				p.Ordering, p.Atomicity, p.Seed = ord, atom, s

				var v *conform.Violation
				var st conform.ExploreStats
				switch mode {
				case "dfs":
					v, st = conform.ExploreDFS(p, budget, timeout)
				case "pct":
					v, st = conform.ExplorePCT(p, budget, pctDepth, timeout)
				default:
					fmt.Fprintf(os.Stderr, "wtfconform: unknown -mode %q\n", mode)
					return 2
				}
				programs++
				executions += st.Executions
				if verbose {
					fmt.Printf("%s/%s seed=%d: %d executions, max trace %d, %d deadlocks\n",
						ord, atom, s, st.Executions, st.MaxTrace, st.Deadlocks)
				}
				if v != nil {
					report(v, shrinkBudget, timeout)
					return 1
				}
			}
		}
	}
	fmt.Printf("wtfconform: %d programs, %d executions, 0 violations (%s, mode %s)\n",
		programs, executions, time.Since(start).Round(time.Millisecond), mode)
	return 0
}

func report(v *conform.Violation, shrinkBudget int, timeout time.Duration) {
	fmt.Printf("VIOLATION found:\n%s", v)
	if shrinkBudget > 0 {
		v = conform.Shrink(v, shrinkBudget, timeout)
		fmt.Printf("shrunk repro:\n%s", v)
	}
	reproduced, deterministic := conform.Replay(v, timeout)
	fmt.Printf("replay: reproduced=%v deterministic=%v\n", reproduced, deterministic)
	p := v.Params
	fmt.Printf("replay with:\n  wtfconform -replay %q -ordering %s -atomicity %s -seed %d"+
		" -threads %d -txns %d -ops %d -boxes %d -futures %d -depth %d\n",
		formatTrace(v.Trace), strings.ToLower(p.Ordering.String()), strings.ToLower(p.Atomicity.String()),
		p.Seed, p.Threads, p.TxPerThread, p.OpsPerTx, p.Boxes, p.MaxFutures, p.Depth)
}

func runReplay(base conform.Params, ord core.Ordering, atom core.Atomicity,
	seed int64, trace string, timeout time.Duration) int {

	indices, err := parseTrace(trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wtfconform: %v\n", err)
		return 2
	}
	p := base
	p.Ordering, p.Atomicity, p.Seed = ord, atom, seed
	v := &conform.Violation{Params: p, Trace: indices}
	reproduced, deterministic := conform.Replay(v, timeout)
	fmt.Printf("replay %s/%s seed=%d trace=%d choices: violation=%v deterministic=%v\n",
		ord, atom, seed, len(indices), reproduced, deterministic)
	if !deterministic {
		return 1
	}
	if reproduced {
		return 1
	}
	return 0
}

func parseTrace(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad trace element %q", p)
		}
		out[i] = n
	}
	return out, nil
}

func formatTrace(tr []int) string {
	parts := make([]string, len(tr))
	for i, c := range tr {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}
