package conform

import (
	"testing"
	"time"

	"wtftm/internal/core"
)

const testTimeout = 10 * time.Second

// TestDeterministicReplay pins down the harness's core guarantee: the same
// policy over the same program yields bit-identical logs and traces, and a
// recorded trace replays the execution exactly.
func TestDeterministicReplay(t *testing.T) {
	p := Params{
		Ordering: core.WO, Atomicity: core.LAC,
		Threads: 2, TxPerThread: 2, OpsPerTx: 5, Boxes: 2, MaxFutures: 2, Depth: 2,
		Seed: 99,
	}
	ex1 := Run(p, NewPCTPolicy(5, 3, 512), testTimeout)
	ex2 := Run(p, NewPCTPolicy(5, 3, 512), testTimeout)
	if ex1.Deadlock || ex2.Deadlock {
		t.Fatal("unexpected deadlock")
	}
	if !logsEqual(ex1.Log, ex2.Log) {
		t.Fatalf("same policy, different logs: %d vs %d ops", len(ex1.Log), len(ex2.Log))
	}
	if len(ex1.Log) == 0 {
		t.Fatal("empty log")
	}
	// Trace replay reproduces the PCT-chosen schedule.
	ex3 := Run(p, NewTracePolicy(Indices(ex1.Trace)), testTimeout)
	if !logsEqual(ex1.Log, ex3.Log) {
		t.Fatalf("trace replay diverged: %d vs %d ops", len(ex1.Log), len(ex3.Log))
	}
}

// TestDFSBranches checks the exhaustive explorer actually enumerates more
// than one schedule for a program with a future (i.e. the hook points create
// genuine scheduling choices) and that the tree is finite.
func TestDFSBranches(t *testing.T) {
	branched := false
	for seed := int64(1); seed <= 8 && !branched; seed++ {
		p := Params{
			Ordering: core.WO, Atomicity: core.LAC,
			Threads: 1, TxPerThread: 1, OpsPerTx: 5, Boxes: 2, MaxFutures: 2, Depth: 1,
			Seed: seed,
		}
		v, st := ExploreDFS(p, 2000, testTimeout)
		if v != nil {
			t.Fatalf("clean engine produced a violation:\n%s", v)
		}
		if st.Executions >= 2000 {
			t.Fatalf("seed %d: schedule tree not exhausted within budget", seed)
		}
		if st.Executions > 1 {
			branched = true
		}
	}
	if !branched {
		t.Fatal("no seed produced a branching schedule tree")
	}
}

// TestClaimRaceBothOutcomes: the exhaustive search over a one-future
// program reaches both winners of the claim race — a worker, and the flow
// evaluating the future — under WO and under SO, and every execution of
// either kind is serializable.
func TestClaimRaceBothOutcomes(t *testing.T) {
	for _, ord := range []core.Ordering{core.WO, core.SO} {
		both := false
		for seed := int64(1); seed <= 32 && !both; seed++ {
			p := Params{
				Ordering: ord, Atomicity: core.LAC,
				Threads: 1, TxPerThread: 1, OpsPerTx: 4, Boxes: 2, MaxFutures: 1, Depth: 1,
				Seed: seed,
			}
			v, st := ExploreDFS(p, 2000, testTimeout)
			if v != nil {
				t.Fatalf("clean engine produced a violation:\n%s", v)
			}
			// Each program has one future, so an execution in which no
			// evaluator ran a body is one in which a worker ran it.
			both = st.EvaluatorRuns > 0 && st.EvaluatorRuns < st.Executions
			t.Logf("%v seed %d: %d executions, the evaluator ran the body in %d", ord, seed, st.Executions, st.EvaluatorRuns)
		}
		if !both {
			t.Fatalf("%v: no one-future program reached both the worker and the evaluator running its body", ord)
		}
	}
}

// TestSweepClean runs the fixed-seed smoke sweep across all four semantics
// combinations: a correct engine must show zero violations. This is the same
// sweep scripts/ci.sh runs through cmd/wtfconform (which, with an engine
// mutant active, must instead find a violation — see mutants_test.go).
func TestSweepClean(t *testing.T) {
	for _, ord := range []core.Ordering{core.WO, core.SO} {
		for _, atom := range []core.Atomicity{core.LAC, core.GAC} {
			for seed := int64(1); seed <= 6; seed++ {
				p := Params{
					Ordering: ord, Atomicity: atom,
					Threads: 2, TxPerThread: 1, OpsPerTx: 5, Boxes: 2, MaxFutures: 2, Depth: 1,
					Seed: seed,
				}
				if v, _ := ExplorePCT(p, 25, 3, testTimeout); v != nil {
					t.Fatalf("%v/%v seed %d:\n%s", ord, atom, seed, v)
				}
			}
		}
	}
}

// TestSchedulerSerializes checks the baton protocol directly: concurrent
// tasks hammering a plain (unsynchronized) counter through Yield points must
// never race, because only one managed task runs at a time.
func TestSchedulerSerializes(t *testing.T) {
	sc := NewScheduler(NewPCTPolicy(1, 2, 128), testTimeout)
	counter := 0
	for i := 0; i < 4; i++ {
		sc.Spawn(func() {
			for j := 0; j < 25; j++ {
				v := counter
				sc.Yield(0, "")
				counter = v + 1
			}
		})
	}
	res := sc.Wait()
	if res.Deadlock {
		t.Fatal("deadlock")
	}
	// With preemption between read and increment, lost updates are expected
	// — but data races are not (go test -race covers that). The counter must
	// still land in (0, 100].
	if counter <= 0 || counter > 100 {
		t.Fatalf("counter = %d", counter)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no scheduling decisions recorded")
	}
}

// TestParkWakesOnPredicate checks a parked task is only rescheduled once its
// predicate holds.
func TestParkWakesOnPredicate(t *testing.T) {
	sc := NewScheduler(NewTracePolicy(nil), testTimeout)
	ch := make(chan struct{})
	order := []string{}
	sc.Spawn(func() {
		sc.Park(func() bool {
			select {
			case <-ch:
				return true
			default:
				return false
			}
		})
		order = append(order, "waiter")
	})
	sc.Spawn(func() {
		order = append(order, "closer")
		close(ch)
	})
	if res := sc.Wait(); res.Deadlock {
		t.Fatal("deadlock")
	}
	if len(order) != 2 || order[0] != "closer" || order[1] != "waiter" {
		t.Fatalf("order = %v", order)
	}
}

// TestWatchdogRecoversDeadlock wedges a task on a never-true predicate and
// checks the watchdog detaches the execution and reports a deadlock rather
// than hanging the process.
func TestWatchdogRecoversDeadlock(t *testing.T) {
	sc := NewScheduler(NewTracePolicy(nil), 50*time.Millisecond)
	sc.Spawn(func() {
		sc.Park(func() bool { return false })
	})
	res := sc.Wait()
	if !res.Deadlock {
		t.Fatal("expected deadlock result")
	}
}
