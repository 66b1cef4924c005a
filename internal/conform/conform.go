// Package conform is a deterministic schedule-exploration harness for the
// WTF-TM engine, with the FSG polygraph as its conformance oracle.
//
// The harness installs a cooperative scheduler (scheduler.go) through the
// hook points of internal/core and internal/mvstm, so that exactly one
// goroutine of a generated transactional-futures program (program.go) runs
// at a time and every interleaving decision is made by a pluggable Policy.
// Two policies drive exploration: a seeded PCT-style randomized scheduler
// and a bounded exhaustive DFS over schedule prefixes (explore.go). Every
// explored execution's recorded operation log is converted by fsg.FromLog
// and checked for serializability with the polygraph oracle; a violating
// schedule is shrunk (shrink.go) to a minimal parameter set and replayed
// from its trace to confirm determinism.
//
// cmd/wtfconform is the CLI front end; scripts/ci.sh runs fixed-seed
// sweeps that must find nothing. The mutation ledger (internal/mutant) proves
// the oracle detects violations: under the mutants build tag,
// TestMutantsCaught switches on each engine mutant this package owns and
// requires a shrunk, replayable FSG cycle from the DFS explorer.
package conform

import (
	"fmt"
	"strings"
	"time"

	"wtftm/internal/core"
	"wtftm/internal/fsg"
	"wtftm/internal/history"
)

// Violation describes a schedule under which the engine produced a
// non-serializable (or wedged) execution, with everything needed to replay
// it: the program parameters and the recorded schedule trace.
type Violation struct {
	Params Params
	Trace  []int
	// Kind is "fsg-cycle", "deadlock", or "log-error".
	Kind   string
	Detail string
	Log    []history.Op
}

func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s under %s/%s seed=%d threads=%d txns=%d ops=%d boxes=%d futures=%d depth=%d\n",
		v.Kind, v.Params.Ordering, v.Params.Atomicity, v.Params.Seed,
		v.Params.Threads, v.Params.TxPerThread, v.Params.OpsPerTx,
		v.Params.Boxes, v.Params.MaxFutures, v.Params.Depth)
	fmt.Fprintf(&b, "  detail: %s\n", v.Detail)
	fmt.Fprintf(&b, "  trace (%d choices): %s\n", len(v.Trace), formatTrace(v.Trace))
	return b.String()
}

func formatTrace(tr []int) string {
	parts := make([]string, len(tr))
	for i, c := range tr {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ",")
}

// semOf maps the engine ordering to the FSG semantics variant.
func semOf(o core.Ordering) fsg.Semantics {
	if o == core.SO {
		return fsg.SOsem
	}
	return fsg.WOsem
}

// CheckLog runs the FSG oracle over a recorded engine log: convert with
// fsg.FromLog, build the polygraph under the ordering's semantics, and
// search for an acyclic bipath selection. It returns a non-empty diagnosis
// for non-serializable logs, and an error for logs the converter rejects
// (which the harness also treats as a failure — the engine wrote them).
func CheckLog(ops []history.Op, ord core.Ordering) (diag string, err error) {
	h, err := fsg.FromLog(ops)
	if err != nil {
		return "", err
	}
	p, err := fsg.Build(h, semOf(ord))
	if err != nil {
		return "", err
	}
	if p.Acyclic() {
		return "", nil
	}
	return fmt.Sprintf("FSG not acyclic under any bipath selection (%d vertices, %d edges, %d bipaths)",
		len(p.Vertices()), p.NumEdges(), p.NumBipaths()), nil
}

// check classifies one execution, returning nil when it conforms.
func check(p Params, ex Execution) *Violation {
	if ex.Deadlock {
		return &Violation{
			Params: p, Trace: Indices(ex.Trace), Kind: "deadlock",
			Detail: "no runnable task before all tasks finished (or watchdog expired)",
			Log:    ex.Log,
		}
	}
	diag, err := CheckLog(ex.Log, p.Ordering)
	if err != nil {
		return &Violation{
			Params: p, Trace: Indices(ex.Trace), Kind: "log-error",
			Detail: err.Error(), Log: ex.Log,
		}
	}
	if diag != "" {
		return &Violation{
			Params: p, Trace: Indices(ex.Trace), Kind: "fsg-cycle",
			Detail: diag, Log: ex.Log,
		}
	}
	return nil
}

// Replay re-runs a violation's schedule from its recorded trace and reports
// whether the execution is deterministic (two runs, identical logs) and
// whether the violation reproduces.
func Replay(v *Violation, timeout time.Duration) (reproduced, deterministic bool) {
	ex1 := Run(v.Params, NewTracePolicy(v.Trace), timeout)
	ex2 := Run(v.Params, NewTracePolicy(v.Trace), timeout)
	deterministic = logsEqual(ex1.Log, ex2.Log)
	reproduced = check(v.Params, ex1) != nil
	return reproduced, deterministic
}

func logsEqual(a, b []history.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Seq, y.Seq = 0, 0
		if x != y {
			return false
		}
	}
	return true
}
