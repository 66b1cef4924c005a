package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"wtftm/internal/mvstm"
	"wtftm/internal/workload"
)

// This file exercises the corners of the four semantics beyond the
// paper-figure scenarios of core_test.go: read stability, deep nesting,
// cancellation, GAC edge cases, and randomized differential testing.

func TestRepeatableReadsWithinSubTransaction(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	err := sys.Atomic(func(tx *Tx) error {
		first := tx.Read(x)
		gate := make(chan struct{})
		f := tx.Submit(func(ftx *Tx) (any, error) {
			v1 := ftx.Read(x)
			<-gate
			v2 := ftx.Read(x) // must equal v1 whatever happened meanwhile
			if v1 != v2 {
				return nil, fmt.Errorf("torn reads in future: %v vs %v", v1, v2)
			}
			return v1, nil
		})
		// The continuation writes x while the future is between its reads.
		tx.Write(x, 99)
		close(gate)
		v, err := tx.Evaluate(f)
		if err != nil {
			return err
		}
		if v != first {
			return fmt.Errorf("future observed %v, spawner snapshot was %v", v, first)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 1)
	err := sys.Atomic(func(tx *Tx) error {
		tx.Write(x, 2)
		if got := tx.Read(x); got != 2 {
			return fmt.Errorf("read-own-write = %v", got)
		}
		f := tx.Submit(func(ftx *Tx) (any, error) {
			ftx.Write(x, 3)
			if got := ftx.Read(x); got != 3 {
				return nil, fmt.Errorf("future read-own-write = %v", got)
			}
			return nil, nil
		})
		_, err := tx.Evaluate(f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeepNestingChain(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	const depth = 24
	var spawn func(tx *Tx, d int) (any, error)
	spawn = func(tx *Tx, d int) (any, error) {
		tx.Write(x, tx.Read(x).(int)+1)
		if d == 0 {
			return tx.Read(x), nil
		}
		f := tx.Submit(func(ftx *Tx) (any, error) { return spawn(ftx, d-1) })
		return tx.Evaluate(f)
	}
	var final any
	err := sys.Atomic(func(tx *Tx) error {
		v, err := spawn(tx, depth)
		final = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != depth+1 {
		t.Fatalf("deepest read = %v, want %d", final, depth+1)
	}
	if got := readInt(t, stm, x); got != depth+1 {
		t.Fatalf("x = %d, want %d", got, depth+1)
	}
}

func TestCancelledChildOfUserAbortedFuture(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	boom := errors.New("boom")
	err := sys.Atomic(func(tx *Tx) error {
		childStarted := make(chan *Future, 1)
		// The child may not finish before its parent aborted: a child that
		// merged into the parent's chain first is discarded with it, not
		// cancelled.
		parentAborted := make(chan struct{})
		f := tx.Submit(func(ftx *Tx) (any, error) {
			child := ftx.Submit(func(ctx *Tx) (any, error) {
				<-parentAborted
				ctx.Write(x, 999)
				return nil, nil
			})
			childStarted <- child
			return nil, boom // abort the parent future
		})
		if _, err := tx.Evaluate(f); !errors.Is(err, boom) {
			return fmt.Errorf("parent err = %v", err)
		}
		close(parentAborted)
		child := <-childStarted
		// The child was spawned by a discarded chain: it is cancelled.
		if _, err := tx.Evaluate(child); !errors.Is(err, ErrStaleFuture) {
			return fmt.Errorf("cancelled child evaluate = %v, want ErrStaleFuture", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, x); got != 0 {
		t.Fatalf("cancelled child's write leaked: x = %d", got)
	}
}

func TestLACDoesNotResurrectCancelledChildren(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	boom := errors.New("boom")
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			ftx.Submit(func(ctx *Tx) (any, error) {
				ctx.Write(x, 999)
				return nil, nil
			})
			return nil, boom
		})
		_, _ = tx.Evaluate(f)
		return nil // commit; LAC must NOT implicitly evaluate the cancelled child
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, x); got != 0 {
		t.Fatalf("LAC resurrected a cancelled child: x = %d", got)
	}
}

func TestGACChainOfEscapes(t *testing.T) {
	// A future escapes T1; T2 evaluates it and spawns another escaping
	// future; T3 evaluates that one. The reference chain crosses three
	// top-level transactions (the generalization discussed after Fig. 1c).
	sys, stm := newSys(WO, GAC)
	ref1 := stm.NewBoxNamed("ref1", nil)
	ref2 := stm.NewBoxNamed("ref2", nil)
	acc := stm.NewBoxNamed("acc", 1)

	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			return ftx.Read(acc).(int) * 2, nil
		})
		tx.Write(ref1, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Atomic(func(tx *Tx) error {
		f1 := tx.Read(ref1).(*Future)
		v, err := tx.Evaluate(f1)
		if err != nil {
			return err
		}
		f2 := tx.Submit(func(ftx *Tx) (any, error) {
			return v.(int) + 5, nil
		})
		tx.Write(ref2, f2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got any
	err = sys.Atomic(func(tx *Tx) error {
		f2 := tx.Read(ref2).(*Future)
		v, err := tx.Evaluate(f2)
		got = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 { // 1*2 + 5
		t.Fatalf("chained escape result = %v, want 7", got)
	}
}

func TestGACEvaluatorAbortReleasesClaim(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	ref := stm.NewBoxNamed("ref", nil)
	a := stm.NewBoxNamed("a", 4)
	poke := stm.NewBoxNamed("poke", 0)
	gate := make(chan struct{})
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(a).(int)
			<-gate
			return v * 10, nil
		})
		tx.Write(ref, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	// First evaluator claims the escapee but then aborts (user decision).
	sentinel := errors.New("user abort")
	err = sys.Atomic(func(tx *Tx) error {
		f := tx.Read(ref).(*Future)
		if _, err := tx.Evaluate(f); err != nil {
			return err
		}
		_ = tx.Read(poke)
		tx.Abort(sentinel)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}

	// A second evaluator must be able to claim and commit it.
	var got any
	err = sys.Atomic(func(tx *Tx) error {
		f := tx.Read(ref).(*Future)
		v, err := tx.Evaluate(f)
		got = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 40 {
		t.Fatalf("result after claim release = %v, want 40", got)
	}
}

// TestForeignEvaluationRevalidatesError: an escapee's body error is judged
// like its result. F reads x, is still running when its spawner T1 commits,
// and then fails because x is 0; T2 commits x = 7; T3's evaluation must
// re-execute F against the new x rather than hand over the error computed
// from the old one.
func TestForeignEvaluationRevalidatesError(t *testing.T) { foreignEvaluationRevalidatesError(t) }

func foreignEvaluationRevalidatesError(t testing.TB) {
	sys, stm := newSys(WO, GAC)
	x := stm.NewBoxNamed("x", 0)
	errZero := errors.New("x is 0")
	committed := make(chan struct{})
	var f *Future
	if err := sys.Atomic(func(tx *Tx) error {
		f = tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(x).(int)
			<-committed // still running when the spawner commits: it escapes
			if v == 0 {
				return nil, errZero
			}
			return v, nil
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(committed)
	<-f.settled.wait()
	commitBox(t, stm, x, 7)

	v, err := sys.AtomicResult(func(tx *Tx) (any, error) { return tx.Evaluate(f) })
	if err != nil || v != 7 {
		t.Errorf("T3 evaluated F to (%v, %v), want (7, nil): the stale error, computed from x = 0, was not revalidated", v, err)
	}
	if n := sys.Stats().EscapeReexecutions.Load(); n != 1 {
		t.Errorf("EscapeReexecutions = %d, want 1", n)
	}
	// The re-execution committed with T3: a later evaluation returns it.
	if v, err := sys.AtomicResult(func(tx *Tx) (any, error) { return tx.Evaluate(f) }); err != nil || v != 7 {
		t.Errorf("a later evaluation returned (%v, %v), want (7, nil)", v, err)
	}
}

// TestForeignEvaluationKeepsValidError: an escapee that failed on reads
// nobody overwrote hands its error to a foreign evaluator without running
// again, and the reads behind the error join the evaluator's commit. The
// evaluator writes z on the error; a commit to x before its own makes it
// retry, and the retry re-executes the escapee against the new x.
func TestForeignEvaluationKeepsValidError(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	x, y, z := stm.NewBoxNamed("x", 0), stm.NewBoxNamed("y", 0), stm.NewBoxNamed("z", 0)
	errZero := errors.New("x is 0")
	committed := make(chan struct{})
	var f *Future
	if err := sys.Atomic(func(tx *Tx) error {
		f = tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(x).(int)
			<-committed
			ftx.Write(y, 1) // discarded with a failed execution
			if v == 0 {
				return nil, errZero
			}
			return v, nil
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(committed)
	<-f.settled.wait()

	attempts := 0
	err := sys.Atomic(func(tx *Tx) error {
		attempts++
		_, err := tx.Evaluate(f)
		if attempts == 1 {
			if !errors.Is(err, errZero) {
				return fmt.Errorf("the first evaluation returned %v, want the escapee's error", err)
			}
			if n := sys.Stats().EscapeReexecutions.Load(); n != 0 {
				return fmt.Errorf("the escapee's valid error was re-executed %d times", n)
			}
			commitBox(t, stm, x, 7)
		}
		if err != nil {
			tx.Write(z, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("the evaluator committed after %d attempts, want 2: the read behind the error was not validated", attempts)
	}
	if gy, gz := readInt(t, stm, y), readInt(t, stm, z); gy != 1 || gz != 0 {
		t.Errorf("y, z = %d, %d; want 1, 0 (the retry re-executes the escapee, which succeeds)", gy, gz)
	}
}

// TestGACAbortedReexecutionIsNotKept: a claimant that re-executes an escapee
// and then aborts leaves the escaped execution's outcome in place. T2
// writes a itself, so the escapee's read of a does not hold there and T2
// re-runs it to 7, then aborts; T3, where a is still 5, must get 5.
func TestGACAbortedReexecutionIsNotKept(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	a := stm.NewBoxNamed("a", 5)
	gate := make(chan struct{})
	var f *Future
	if err := sys.Atomic(func(tx *Tx) error {
		f = tx.Submit(func(ftx *Tx) (any, error) {
			<-gate
			return ftx.Read(a), nil
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	stop := errors.New("stop")
	err := sys.Atomic(func(tx *Tx) error {
		tx.Write(a, 7)
		if v, err := tx.Evaluate(f); err != nil || v != 7 {
			return fmt.Errorf("T2 evaluated (%v, %v), want the re-execution's 7", v, err)
		}
		tx.Abort(stop)
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatal(err)
	}
	if v, err := sys.AtomicResult(func(tx *Tx) (any, error) { return tx.Evaluate(f) }); err != nil || v != 5 {
		t.Fatalf("T3 evaluated (%v, %v), want the escaped execution's 5", v, err)
	}
}

// TestForeignEvaluationOlderSnapshotReexecutes: an evaluator whose snapshot
// is older than the escapee's spawner's cannot take the escapee's snapshot
// reads as they are. T2 begins before a commit sets x = 1; T1 begins after
// it and spawns F, which reads x and escapes; T2 gets F out of band. Its
// evaluation must re-execute F at its own snapshot, so that F's result and
// T2's own read of x agree.
func TestForeignEvaluationOlderSnapshotReexecutes(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	x, y := stm.NewBoxNamed("x", 0), stm.NewBoxNamed("y", 0)
	begun, handed := make(chan struct{}), make(chan *Future, 1)
	var got, gotX any
	done := make(chan error, 1)
	go func() {
		once := sync.Once{}
		done <- sys.Atomic(func(tx *Tx) error {
			tx.Read(y) // T2's snapshot is taken here, before x = 1
			once.Do(func() { close(begun) })
			f := <-handed
			handed <- f
			v, err := tx.Evaluate(f)
			got, gotX = v, tx.Read(x)
			return err
		})
	}()
	<-begun
	commitBox(t, stm, x, 1)
	gate := make(chan struct{})
	var f *Future
	if err := sys.Atomic(func(tx *Tx) error {
		f = tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(x)
			<-gate // still running when the spawner commits: it escapes
			return v, nil
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	handed <- f
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got != gotX {
		t.Errorf("T2 evaluated F to %v but read x = %v: F's read of x at its spawner's newer snapshot was taken as current", got, gotX)
	}
	if n := sys.Stats().EscapeReexecutions.Load(); n != 1 {
		t.Errorf("EscapeReexecutions = %d, want 1", n)
	}
}

// TestEscapeeReadOfOwnWriteFoldsOverEvaluator: an escapee's read of its own
// chain's write holds wherever it folds, over the evaluator's own write of
// the box too. F writes b, submits a future (a new vertex) and reads b
// back; T2 writes b and evaluates F, which must fold without running again,
// its write winning.
func TestEscapeeReadOfOwnWriteFoldsOverEvaluator(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	b := stm.NewBoxNamed("b", 0)
	gate := make(chan struct{})
	var f *Future
	if err := sys.Atomic(func(tx *Tx) error {
		f = tx.Submit(func(ftx *Tx) (any, error) {
			<-gate
			ftx.Write(b, 1)
			ftx.Submit(func(*Tx) (any, error) { return nil, nil })
			return ftx.Read(b), nil
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	<-f.settled.wait()
	if err := sys.Atomic(func(tx *Tx) error {
		tx.Write(b, 5)
		if v, err := tx.Evaluate(f); err != nil || v != 1 {
			return fmt.Errorf("T2 evaluated F to (%v, %v), want (1, nil)", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := sys.Stats().EscapeReexecutions.Load(); n != 0 {
		t.Errorf("EscapeReexecutions = %d, want 0: F's read of its own write of b was judged against T2's write", n)
	}
	if got := readInt(t, stm, b); got != 1 {
		t.Errorf("b = %d, want F's 1", got)
	}
}

// TestSiblingErrorReadsJoinEvaluator: an escapee that evaluates a sibling
// escapee which failed after their spawner's commit takes on the reads
// behind the error. S fails because x is 0; E evaluates S and returns what
// it saw; after a commit sets x = 7, a foreign evaluation of E must run E
// again rather than hand over a result drawn from S's stale error.
func TestSiblingErrorReadsJoinEvaluator(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	x := stm.NewBoxNamed("x", 0)
	errZero := errors.New("x is 0")
	gateS, gateE := make(chan struct{}), make(chan struct{})
	var s, e *Future
	if err := sys.Atomic(func(tx *Tx) error {
		s = tx.Submit(func(ftx *Tx) (any, error) {
			<-gateS
			if ftx.Read(x).(int) == 0 {
				return nil, errZero
			}
			return "ok", nil
		})
		e = tx.Submit(func(ftx *Tx) (any, error) {
			<-gateE
			if _, err := ftx.Evaluate(s); err != nil {
				return "failed", nil
			}
			return "ok", nil
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(gateS)
	<-s.settled.wait()
	close(gateE)
	<-e.settled.wait()
	commitBox(t, stm, x, 7)
	if v, err := sys.AtomicResult(func(tx *Tx) (any, error) { return tx.Evaluate(e) }); err != nil || v != "ok" {
		t.Errorf("E evaluated to (%v, %v), want (ok, nil): the read of x behind S's error was not validated", v, err)
	}
}

// TestSiblingReexecutionErrorReadsJoinEvaluator: a sibling escapee that
// fails when re-executed in its evaluator's flow leaves the reads behind
// the error there, and a foreign evaluation of it that has no chain to
// judge runs it again. E writes x = 5 and evaluates S, whose read of x is
// then stale, so S runs again in E's flow and fails on x = 5 and y = 0.
// After a commit sets y = 1, neither S's error nor E's result drawn from it
// may be handed over as they are.
func TestSiblingReexecutionErrorReadsJoinEvaluator(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	x, y := stm.NewBoxNamed("x", 0), stm.NewBoxNamed("y", 0)
	errBoth := errors.New("x is 5 and y is 0")
	gateS, gateE := make(chan struct{}), make(chan struct{})
	var s, e *Future
	if err := sys.Atomic(func(tx *Tx) error {
		s = tx.Submit(func(ftx *Tx) (any, error) {
			<-gateS
			if ftx.Read(x).(int) == 5 && ftx.Read(y).(int) == 0 {
				return nil, errBoth
			}
			return "ok", nil
		})
		e = tx.Submit(func(ftx *Tx) (any, error) {
			<-gateE
			ftx.Write(x, 5)
			if _, err := ftx.Evaluate(s); err != nil {
				return "failed", nil
			}
			return "ok", nil
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(gateS)
	<-s.settled.wait()
	close(gateE)
	<-e.settled.wait()
	if n := sys.Stats().FutureReexecutions.Load(); n != 1 {
		t.Fatalf("FutureReexecutions = %d, want 1: E did not re-execute S", n)
	}
	commitBox(t, stm, y, 1)
	if v, err := sys.AtomicResult(func(tx *Tx) (any, error) { return tx.Evaluate(s) }); err != nil || v != "ok" {
		t.Errorf("S evaluated to (%v, %v), want (ok, nil): its error, computed from y = 0, was not revalidated", v, err)
	}
	if v, err := sys.AtomicResult(func(tx *Tx) (any, error) { return tx.Evaluate(e) }); err != nil || v != "ok" {
		t.Errorf("E evaluated to (%v, %v), want (ok, nil): the read of y behind S's error was not validated", v, err)
	}
}

// TestEscapeesEvaluateEachOthersSpawners: an escapee of a committed
// transaction that evaluates another transaction's escapee re-executes it
// rather than walk its chain, so two such flows never hold one committed
// transaction's graph lock while waiting for the other's. E1 (of T1) and
// E2 (of T2) each evaluate an escapee of the other's spawner at once.
func TestEscapeesEvaluateEachOthersSpawners(t *testing.T) {
	sys, _ := newSys(WO, GAC)
	gate, start := make(chan struct{}), make(chan struct{})
	var a [2]*Future
	var e [2]*Future
	for i := range 2 {
		if err := sys.Atomic(func(tx *Tx) error {
			a[i] = tx.Submit(func(*Tx) (any, error) { <-gate; return i, nil })
			e[i] = tx.Submit(func(ftx *Tx) (any, error) {
				<-start
				return ftx.Evaluate(a[1-i])
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	<-a[0].settled.wait()
	<-a[1].settled.wait()
	close(start)
	for i := range 2 {
		select {
		case <-e[i].settled.wait():
		case <-time.After(10 * time.Second):
			t.Fatalf("E%d did not settle", i+1)
		}
	}
	if n := sys.Stats().EscapeReexecutions.Load(); n != 2 {
		t.Errorf("EscapeReexecutions = %d, want 2", n)
	}
}

func TestWriteSkewPreventedAcrossFutures(t *testing.T) {
	// Two futures of *different* top-level transactions each read both boxes
	// and write one: classic write skew. MV-STM read-set validation must
	// serialize them (one aborts and retries).
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 1)
	y := stm.NewBoxNamed("y", 1)
	var wg sync.WaitGroup
	body := func(readBoth bool, from, to *mvstm.VBox) {
		defer wg.Done()
		_ = sys.Atomic(func(tx *Tx) error {
			f := tx.Submit(func(ftx *Tx) (any, error) {
				sum := ftx.Read(x).(int) + ftx.Read(y).(int)
				if sum >= 2 {
					ftx.Write(from, ftx.Read(from).(int)-1)
				}
				return nil, nil
			})
			_, err := tx.Evaluate(f)
			return err
		})
	}
	wg.Add(2)
	go body(true, x, y)
	go body(true, y, x)
	wg.Wait()
	final := readInt(t, stm, x) + readInt(t, stm, y)
	if final < 1 {
		t.Fatalf("write skew admitted: x+y = %d", final)
	}
}

// TestDifferentialRandomPrograms runs random single-threaded future programs
// under WO and SO and compares their committed states with a sequential
// oracle. SO must match the oracle exactly; WO must match when every future
// is evaluated immediately after submission (adjacent submit/evaluate means
// continuation and future cannot interleave observably in a deterministic
// program run... both serialization orders are exercised by the engine, so
// WO is checked only for *a* consistent outcome: the oracle value or the
// value obtained by commuting adjacent future/continuation blocks; for
// simplicity the generated programs use commutative additions, for which all
// serialization orders agree).
func TestDifferentialRandomPrograms(t *testing.T) {
	type step struct {
		Box   uint8
		Delta int8
		Fut   bool
	}
	run := func(ord Ordering, steps []step, useFutures bool) []int {
		stm := mvstm.New()
		sys := New(stm, Options{Ordering: ord, Atomicity: LAC})
		boxes := make([]*mvstm.VBox, 4)
		for i := range boxes {
			boxes[i] = stm.NewBoxNamed(fmt.Sprintf("b%d", i), 0)
		}
		err := sys.Atomic(func(tx *Tx) error {
			var futs []*Future
			for _, s := range steps {
				b := boxes[int(s.Box)%len(boxes)]
				d := int(s.Delta)
				if s.Fut && useFutures {
					futs = append(futs, tx.Submit(func(ftx *Tx) (any, error) {
						ftx.Write(b, ftx.Read(b).(int)+d)
						return nil, nil
					}))
				} else {
					tx.Write(b, tx.Read(b).(int)+d)
				}
			}
			for _, f := range futs {
				if _, err := tx.Evaluate(f); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(boxes))
		txn := stm.Begin()
		for i, b := range boxes {
			out[i] = txn.Read(b).(int)
		}
		txn.Discard()
		return out
	}
	f := func(rawSteps []uint32) bool {
		if len(rawSteps) > 24 {
			rawSteps = rawSteps[:24]
		}
		steps := make([]step, len(rawSteps))
		for i, r := range rawSteps {
			steps[i] = step{Box: uint8(r), Delta: int8(r >> 8), Fut: r>>16&1 == 1}
		}
		oracle := run(SO, steps, false)
		so := run(SO, steps, true)
		wo := run(WO, steps, true)
		return fmt.Sprint(oracle) == fmt.Sprint(so) && fmt.Sprint(oracle) == fmt.Sprint(wo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestManyConcurrentTopsHighContention hammers a tiny hot-spot set from
// many transactions with futures under both orderings and checks the final
// sum (every increment must apply exactly once).
func TestManyConcurrentTopsHighContention(t *testing.T) {
	for _, ord := range []Ordering{WO, SO} {
		t.Run(ord.String(), func(t *testing.T) {
			sys, stm := newSys(ord, LAC)
			hot := stm.NewBoxNamed("hot", 0)
			const tops = 8
			const futuresPer = 3
			var wg sync.WaitGroup
			for g := 0; g < tops; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := workload.NewRNG(uint64(g) + 1)
					for i := 0; i < 5; i++ {
						err := sys.Atomic(func(tx *Tx) error {
							var futs []*Future
							for k := 0; k < futuresPer; k++ {
								futs = append(futs, tx.Submit(func(ftx *Tx) (any, error) {
									ftx.Write(hot, ftx.Read(hot).(int)+1)
									return nil, nil
								}))
								if rng.Intn(2) == 0 {
									_ = tx.Read(hot)
								}
							}
							for _, f := range futs {
								if _, err := tx.Evaluate(f); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			want := tops * 5 * futuresPer
			if got := readInt(t, stm, hot); got != want {
				t.Fatalf("hot = %d, want %d (lost or duplicated increments)", got, want)
			}
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	err := sys.Atomic(func(tx *Tx) error {
		for i := 0; i < 3; i++ {
			f := tx.Submit(func(ftx *Tx) (any, error) {
				ftx.Write(x, ftx.Read(x).(int)+1)
				return nil, nil
			})
			if _, err := tx.Evaluate(f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Stats().Snapshot()
	if s.FuturesSubmitted != 3 {
		t.Fatalf("FuturesSubmitted = %d", s.FuturesSubmitted)
	}
	if s.MergedAtSubmission+s.MergedAtEvaluation+s.FutureReexecutions < 3 {
		t.Fatalf("futures unaccounted for: %+v", s)
	}
	if s.TopCommits != 1 {
		t.Fatalf("TopCommits = %d", s.TopCommits)
	}
	if got := s.InternalAborts(); got != s.FutureReexecutions+s.TopInternal+s.EscapeReexecs {
		t.Fatalf("InternalAborts = %d", got)
	}
}

// TestForeignRepeatedEvaluation: a transaction that evaluates one escaped
// future twice gets the same outcome both times, whether its first
// evaluation folded the escaped execution or re-executed the body (stale),
// and commits the body's effect once. The second evaluation finds its own
// attempt holding the claim, and must not wait for that attempt to end.
func TestForeignRepeatedEvaluation(t *testing.T) {
	for _, stale := range []bool{false, true} {
		t.Run(fmt.Sprintf("stale=%v", stale), func(t *testing.T) {
			sys, stm, f, b, want := escapedAdder(t, stale)
			within(t, sys, "a second evaluation of an escaped future in one transaction", func(tx *Tx) error {
				for i := 0; i < 2; i++ {
					if v, err := tx.Evaluate(f); err != nil || v != want {
						return fmt.Errorf("evaluation %d returned %v, %v; want %d", i+1, v, err, want)
					}
				}
				return nil
			})
			if got := readInt(t, stm, b); got != want {
				t.Fatalf("b = %d, want %d: the body's write did not commit exactly once", got, want)
			}
		})
	}
}

// TestForeignDecisionDiscardedWithItsChain: a local future g evaluates an
// escapee, which serializes in g's chain, and is then re-executed (it
// parks on a forward conflict and fails backward validation), which
// discards that chain with the escapee's effect. g's re-execution must
// serialize the escapee again, not return the discarded outcome, so that
// the escapee's write commits exactly once.
func TestForeignDecisionDiscardedWithItsChain(t *testing.T) {
	for _, stale := range []bool{false, true} {
		t.Run(fmt.Sprintf("stale=%v", stale), func(t *testing.T) { foreignDecisionDiscardedWithItsChain(t, stale) })
	}
}

func foreignDecisionDiscardedWithItsChain(t testing.TB, stale bool) {
	sys, stm, f, b, want := escapedAdder(t, stale)
	c := stm.NewBoxNamed("c", 0)
	d := stm.NewBoxNamed("d", 0)
	within(t, sys, "a re-executed future's evaluation of an escapee", func(tx *Tx) error {
		start := make(chan struct{})
		g := tx.Submit(func(gtx *Tx) (any, error) {
			<-start
			v, err := gtx.Evaluate(f)
			if err != nil {
				return nil, err
			}
			gtx.Read(c)
			gtx.Write(d, 1)
			return v, nil
		})
		tx.Read(d)     // g's write of d conflicts forward: g parks
		tx.Write(c, 1) // and g's read of c backward: g re-executes
		close(start)
		if v, err := tx.Evaluate(g); err != nil || v != want {
			return fmt.Errorf("g returned %v, %v; want %d", v, err, want)
		}
		return nil
	})
	if n := sys.Stats().Snapshot().FutureReexecutions; n == 0 {
		t.Fatal("g was not re-executed: the test did not build its shape")
	}
	if got := readInt(t, stm, b); got != want {
		t.Fatalf("b = %d, want %d: the escapee's write did not commit exactly once", got, want)
	}
}

// TestForeignRepeatAwaitsItsDecision: a flow that evaluates an escapee
// which another flow of its attempt already serialized gets the outcome
// only once that serialization lies on its path, and then reads the
// escapee's write. Here the main flow evaluates while the deciding future
// still runs, and is answered when the future merges at its submission.
func TestForeignRepeatAwaitsItsDecision(t *testing.T) {
	sys, stm, f, b, want := escapedAdder(t, false)
	within(t, sys, "an evaluation of an escapee another flow serialized", func(tx *Tx) error {
		decided, release := make(chan struct{}), make(chan struct{})
		g := tx.Submit(func(gtx *Tx) (any, error) {
			v, err := gtx.Evaluate(f)
			close(decided)
			<-release
			return v, err
		})
		<-decided
		time.AfterFunc(20*time.Millisecond, func() { close(release) })
		if v, err := tx.Evaluate(f); err != nil || v != want {
			return fmt.Errorf("evaluation returned %v, %v; want %d", v, err, want)
		}
		if got := tx.Read(b).(int); got != want {
			return fmt.Errorf("b = %d after the evaluation returned %d: the escapee's write is not on the evaluator's path", got, want)
		}
		_, err := tx.Evaluate(g)
		return err
	})
	if got := readInt(t, stm, b); got != want {
		t.Fatalf("b = %d, want %d", got, want)
	}
}

// TestForeignDecisionOfACancelledFlow: a future whose spawning chain was
// discarded keeps running, and what it decides for an escapee it evaluates
// cannot commit. The re-executed spawner's new future must serialize the
// escapee itself, neither waiting for nor returning that decision.
func TestForeignDecisionOfACancelledFlow(t *testing.T) {
	sys, stm, f, b, want := escapedAdder(t, false)
	c := stm.NewBoxNamed("c", 0)
	d := stm.NewBoxNamed("d", 0)
	within(t, sys, "an escapee's evaluation after a cancelled one", func(tx *Tx) error {
		var runs atomic.Int32
		start, gate, cancelled := make(chan struct{}), make(chan struct{}), make(chan struct{})
		s := tx.Submit(func(stx *Tx) (any, error) {
			<-start
			first := runs.Add(1) == 1
			if !first {
				close(gate) // the first execution's chain is discarded by now
			}
			g := stx.Submit(func(gtx *Tx) (any, error) {
				if first {
					<-gate
					defer close(cancelled)
				} else {
					<-cancelled
				}
				return gtx.Evaluate(f)
			})
			stx.Read(c)
			stx.Write(d, 1)
			if first {
				return nil, nil
			}
			return stx.Evaluate(g)
		})
		tx.Read(d)     // s's write of d conflicts forward: s parks
		tx.Write(c, 1) // and its read of c backward: s re-executes
		close(start)
		if v, err := tx.Evaluate(s); err != nil || v != want {
			return fmt.Errorf("s returned %v, %v; want %d", v, err, want)
		}
		if got := tx.Read(b).(int); got != want {
			return fmt.Errorf("b = %d after s returned %d", got, want)
		}
		return nil
	})
	if got := readInt(t, stm, b); got != want {
		t.Fatalf("b = %d, want %d", got, want)
	}
}

// escapedAdder commits a transaction whose future, still running at its
// spawner's commit, escapes: it reads a (5) and adds it to b (0). With
// stale, a commit of 7 to a after the future settled makes its escaped
// execution stale, so an evaluator re-executes it. want is the result (and
// b's value) of the execution an evaluator serializes.
func escapedAdder(t testing.TB, stale bool) (sys *System, stm *mvstm.STM, f *Future, b *mvstm.VBox, want int) {
	t.Helper()
	sys, stm = newSys(WO, GAC)
	a := stm.NewBoxNamed("a", 5)
	b = stm.NewBoxNamed("b", 0)
	gate := make(chan struct{})
	if err := sys.Atomic(func(tx *Tx) error {
		f = tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(a).(int)
			<-gate // still running when the spawner commits: it escapes
			ftx.Write(b, ftx.Read(b).(int)+v)
			return v, nil
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	<-f.settled.wait()
	want = 5
	if stale {
		commitBox(t, stm, a, 7)
		want = 7
	}
	return sys, stm, f, b, want
}

// within runs body as a transaction of sys and fails t if it errs or does
// not return within 2 s.
func within(t testing.TB, sys *System, what string, body func(*Tx) error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- sys.Atomic(body) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return within 2 s", what)
	}
}

// TestDecideAfterClaimEnded: an attempt can abort, ending its claim on an
// escapee, while one of its flows is still evaluating that escapee. The
// outcome that flow reaches afterwards must not be recorded: the next
// claimant would take it for its own.
func TestDecideAfterClaimEnded(t *testing.T) {
	f := &Future{}
	t1, t2 := &topTx{}, &topTx{}
	f.claimant, f.claimCh = t1, make(chan struct{})
	t1.claims = []*Future{f}
	t1.endClaims(false)
	f.claimant, f.claimCh = t2, make(chan struct{})
	v1, v2 := &vertex{}, &vertex{}
	f.decide(t1, v1, 1, nil)
	if f.decided != nil || f.at != nil {
		t.Fatalf("an ended claim recorded an outcome (%v, at %p) for the next claimant", f.decided, f.at)
	}
	f.decide(t2, v2, 2, nil)
	if d := f.decided; d == nil || d.res != 2 || f.at != v2 {
		t.Fatalf("the claimant's own outcome was not recorded: %v", d)
	}
}
