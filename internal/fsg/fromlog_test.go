package fsg

import (
	"strconv"
	"strings"
	"testing"

	"wtftm/internal/history"
)

// logOps is a tiny DSL for composing engine logs in tests.
func logOps(ops ...history.Op) []history.Op {
	for i := range ops {
		ops[i].Seq = int64(i + 1)
	}
	return ops
}

// parseLog reads a log of top-level transaction 1 written one op a line:
// "<flow> <kind>" then "<var> <obs>" for a read, "<var> <wid>" for a write,
// "<ts>" for topCommit, and the Arg of any other kind.
func parseLog(t *testing.T, text string) []history.Op {
	kinds := map[string]history.Kind{}
	for k := history.TopBegin; k <= history.FutureAbort; k++ {
		kinds[k.String()] = k
	}
	var ops []history.Op
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		flow, err := strconv.Atoi(f[0])
		kind, ok := kinds[f[1]]
		if err != nil || !ok {
			t.Fatalf("bad log line %q", line)
		}
		op := history.Op{Top: 1, Flow: flow, Kind: kind}
		switch kind {
		case history.Read:
			op.Var, op.Obs = f[2], f[3]
		case history.Write:
			op.Var = f[2]
			op.WID, err = strconv.ParseInt(f[3], 10, 64)
		case history.TopCommit:
			op.WID, err = strconv.ParseInt(f[2], 10, 64)
		default:
			if len(f) > 2 {
				op.Arg = f[2]
			}
		}
		if err != nil {
			t.Fatalf("bad log line %q", line)
		}
		ops = append(ops, op)
	}
	return logOps(ops...)
}

// checkNested converts a log of nested futures, requires its polygraph to be
// acyclic under WO, and requires exactly the named futures to have dropped
// out of it.
func checkNested(t *testing.T, text string, dropped, kept []string) {
	t.Helper()
	h, err := FromLog(parseLog(t, text))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dropped {
		if ops := h.Agents[name]; len(ops) != 0 {
			t.Errorf("%s survived with %d ops", name, len(ops))
		}
	}
	for _, name := range kept {
		if len(h.Agents[name]) == 0 {
			t.Errorf("%s lost its ops", name)
		}
	}
	p, err := Build(h, WOsem)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Acyclic() {
		t.Fatal("FSG has a cycle")
	}
}

// TestFromLogDropsFuturesOfDiscardedExecution: F1's first execution (flow
// 1) submits F2 and F3, which merge into its chain; F1 is then re-executed
// at its evaluation (flow 4) and submits F4 and F5 instead. F2 and F3 record
// no abort of their own, but the execution that submitted them was
// discarded, so their writes never happened — the committed values are F5's.
// Kept, they close a cycle CB(T1.F1) B(T1.F1) CB(T1.F4) CB(T1.F5) B(T1.F3).
// This is wtfconform's shrunk repro of WO/LAC seed 12, futures 1, depth 2.
func TestFromLogDropsFuturesOfDiscardedExecution(t *testing.T) {
	checkNested(t, `
0 topBegin
0 submit T1.F1
0 read x1 v0
0 write x1 1
1 futureBegin T1.F1
1 read x1 v0
1 submit T1.F2
1 submit T1.F3
1 read x0 v0
1 evaluate T1.F2
2 futureBegin T1.F2
2 read x0 v0
2 read x1 v0
2 futureMerge submission
1 evaluate T1.F3
3 futureBegin T1.F3
3 write x0 2
3 read x1 v0
3 write x1 3
3 futureMerge evaluation
0 evaluate T1.F1/implicit
1 futureAbort T1.F1
4 futureBegin T1.F1
4 read x1 w1
4 submit T1.F4
4 submit T1.F5
4 read x0 v0
4 evaluate T1.F4
5 futureBegin T1.F4
5 read x0 v0
5 read x1 w1
5 futureMerge submission
4 evaluate T1.F5
6 futureBegin T1.F5
6 write x0 4
6 read x1 w1
6 write x1 5
6 futureMerge evaluation
1 futureMerge evaluation
0 topCommit 1`, []string{"T1.F2", "T1.F3"}, []string{"T1.F1", "T1.F4", "T1.F5"})
}

// TestFromLogDropsFuturesOfUnresolvedFuture: under GAC the top-level
// transaction commits without evaluating F3, so F3 never took effect; F5,
// which F3 submitted and which merged into F3's chain, read F3's write w5.
// Kept, F5's read refers to a discarded write. This is wtfconform's shrunk
// repro of WO/GAC seed 11, futures 3, depth 3.
func TestFromLogDropsFuturesOfUnresolvedFuture(t *testing.T) {
	checkNested(t, `
0 topBegin
0 submit T1.F1
1 futureBegin T1.F1
1 write x0 1
1 submit T1.F2
2 futureBegin T1.F2
2 read x0 w1
2 write x0 2
2 futureMerge submission
1 write x0 3
1 evaluate T1.F2
1 futureMerge submission
0 write x0 4
0 evaluate T1.F1
0 submit T1.F3
3 futureBegin T1.F3
3 submit T1.F4
3 write x0 5
3 submit T1.F5
3 read x0 w5
3 evaluate T1.F4
4 futureBegin T1.F4
4 write x0 6
4 write x0 7
4 write x0 8
5 futureBegin T1.F5
5 read x0 w5
5 futureMerge submission
0 topCommit 1
4 futureMerge evaluation
3 evaluate T1.F5`, []string{"T1.F3", "T1.F4", "T1.F5"}, []string{"T1.F1", "T1.F2"})
}

func TestFromLogBasic(t *testing.T) {
	ops := logOps(
		history.Op{Top: 1, Flow: 0, Kind: history.TopBegin},
		history.Op{Top: 1, Flow: 0, Kind: history.Write, Var: "x", WID: 1},
		history.Op{Top: 1, Flow: 0, Kind: history.Submit, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 1, Kind: history.FutureBegin, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 1, Kind: history.Read, Var: "x", Obs: "w1"},
		history.Op{Top: 1, Flow: 1, Kind: history.Write, Var: "x", WID: 2},
		history.Op{Top: 1, Flow: 1, Kind: history.FutureMerge, Arg: "submission"},
		history.Op{Top: 1, Flow: 0, Kind: history.Evaluate, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 0, Kind: history.TopCommit, WID: 1},
	)
	h, err := FromLog(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Agents["T1"]) != 2 { // write + submit + eval → eval is an op too
		// write, submit, eval = 3 ops
		t.Logf("T1 ops: %+v", h.Agents["T1"])
	}
	if got := len(h.Agents["T1.F1"]); got != 2 {
		t.Fatalf("future ops = %d, want 2", got)
	}
	if h.Top["T1.F1"] != "T1" {
		t.Fatalf("future inclusion = %q", h.Top["T1.F1"])
	}
	if len(h.Commits) != 1 || h.Commits[0].ID != "c1" {
		t.Fatalf("commits = %+v", h.Commits)
	}
	p, err := Build(h, WOsem)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Acyclic() {
		t.Fatal("basic log not serializable")
	}
}

func TestFromLogDropsAbortedTops(t *testing.T) {
	ops := logOps(
		history.Op{Top: 1, Flow: 0, Kind: history.TopBegin},
		history.Op{Top: 1, Flow: 0, Kind: history.Write, Var: "x", WID: 1},
		history.Op{Top: 1, Flow: 0, Kind: history.TopAbort},
		history.Op{Top: 2, Flow: 0, Kind: history.TopBegin},
		history.Op{Top: 2, Flow: 0, Kind: history.Write, Var: "x", WID: 2},
		history.Op{Top: 2, Flow: 0, Kind: history.TopCommit, WID: 5},
	)
	h, err := FromLog(ops)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Agents["T1"]; ok {
		t.Fatal("aborted top survived conversion")
	}
	if _, ok := h.Agents["T2"]; !ok {
		t.Fatal("committed top missing")
	}
}

func TestFromLogDiscardedExecutionElided(t *testing.T) {
	// First execution of the future aborted (re-executed on flow 2).
	ops := logOps(
		history.Op{Top: 1, Flow: 0, Kind: history.TopBegin},
		history.Op{Top: 1, Flow: 0, Kind: history.Submit, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 1, Kind: history.FutureBegin, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 1, Kind: history.Write, Var: "x", WID: 1},
		history.Op{Top: 1, Flow: 0, Kind: history.Evaluate, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 1, Kind: history.FutureAbort, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 2, Kind: history.FutureBegin, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 2, Kind: history.Write, Var: "x", WID: 2},
		history.Op{Top: 1, Flow: 2, Kind: history.FutureMerge, Arg: "evaluation"},
		history.Op{Top: 1, Flow: 0, Kind: history.TopCommit, WID: 3},
	)
	h, err := FromLog(ops)
	if err != nil {
		t.Fatal(err)
	}
	fops := h.Agents["T1.F1"]
	if len(fops) != 1 || fops[0].WID != "w2" {
		t.Fatalf("surviving execution ops = %+v, want only w2", fops)
	}
}

func TestFromLogUserAbortedFutureIsEmptyAgent(t *testing.T) {
	ops := logOps(
		history.Op{Top: 1, Flow: 0, Kind: history.TopBegin},
		history.Op{Top: 1, Flow: 0, Kind: history.Submit, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 1, Kind: history.FutureBegin, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 1, Kind: history.Write, Var: "x", WID: 1},
		history.Op{Top: 1, Flow: 1, Kind: history.FutureAbort, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 0, Kind: history.Evaluate, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 0, Kind: history.TopCommit, WID: 0},
	)
	h, err := FromLog(ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Agents["T1.F1"]; len(got) != 0 {
		t.Fatalf("user-aborted future ops = %+v, want none", got)
	}
	p, err := Build(h, WOsem)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Acyclic() {
		t.Fatal("empty-future history rejected")
	}
}

func TestFromLogImplicitEvalSuffixStripped(t *testing.T) {
	ops := logOps(
		history.Op{Top: 1, Flow: 0, Kind: history.TopBegin},
		history.Op{Top: 1, Flow: 0, Kind: history.Submit, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 1, Kind: history.FutureBegin, Arg: "T1.F1"},
		history.Op{Top: 1, Flow: 1, Kind: history.Write, Var: "x", WID: 1},
		history.Op{Top: 1, Flow: 0, Kind: history.Evaluate, Arg: "T1.F1/implicit"},
		history.Op{Top: 1, Flow: 1, Kind: history.FutureMerge, Arg: "evaluation"},
		history.Op{Top: 1, Flow: 0, Kind: history.TopCommit, WID: 2},
	)
	h, err := FromLog(ops)
	if err != nil {
		t.Fatal(err)
	}
	var evalOp *Op
	for i, op := range h.Agents["T1"] {
		if op.Kind == Eval {
			evalOp = &h.Agents["T1"][i]
		}
	}
	if evalOp == nil || evalOp.Future != "T1.F1" {
		t.Fatalf("implicit evaluation not normalized: %+v", h.Agents["T1"])
	}
}

func TestFromLogReadOnlyCommitsExcludedFromVersionOrder(t *testing.T) {
	ops := logOps(
		history.Op{Top: 1, Flow: 0, Kind: history.TopBegin},
		history.Op{Top: 1, Flow: 0, Kind: history.Read, Var: "x", Obs: "v0"},
		history.Op{Top: 1, Flow: 0, Kind: history.TopCommit, WID: 0}, // read-only
	)
	h, err := FromLog(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Commits) != 0 {
		t.Fatalf("read-only commit entered version order: %+v", h.Commits)
	}
}

func TestFromLogRejectsDanglingObservation(t *testing.T) {
	ops := logOps(
		history.Op{Top: 1, Flow: 0, Kind: history.TopBegin},
		history.Op{Top: 1, Flow: 0, Kind: history.Read, Var: "x", Obs: "w99"},
		history.Op{Top: 1, Flow: 0, Kind: history.TopCommit, WID: 1},
	)
	_, err := FromLog(ops)
	if err == nil || !strings.Contains(err.Error(), "discarded write") {
		t.Fatalf("err = %v, want discarded-write error", err)
	}
}

func TestFromLogUnknownCommitObservation(t *testing.T) {
	ops := logOps(
		history.Op{Top: 1, Flow: 0, Kind: history.TopBegin},
		history.Op{Top: 1, Flow: 0, Kind: history.Read, Var: "x", Obs: "v42"},
		history.Op{Top: 1, Flow: 0, Kind: history.TopCommit, WID: 1},
	)
	_, err := FromLog(ops)
	if err == nil || !strings.Contains(err.Error(), "outside the log") {
		t.Fatalf("err = %v, want outside-the-log error", err)
	}
}
