package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"wtftm/internal/mvstm"
)

func TestStringers(t *testing.T) {
	if WO.String() != "WO" || SO.String() != "SO" {
		t.Fatal("Ordering names")
	}
	if LAC.String() != "LAC" || GAC.String() != "GAC" {
		t.Fatal("Atomicity names")
	}
}

func TestAccessors(t *testing.T) {
	stm := mvstm.New()
	sys := New(stm, Options{Ordering: SO, Atomicity: GAC})
	if sys.STM() != stm {
		t.Fatal("STM accessor")
	}
	if o := sys.Options(); o.Ordering != SO || o.Atomicity != GAC {
		t.Fatalf("Options = %+v", o)
	}
	err := sys.Atomic(func(tx *Tx) error {
		if tx.System() != sys {
			return errors.New("Tx.System mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortNilError(t *testing.T) {
	sys, _ := newSys(WO, LAC)
	err := sys.Atomic(func(tx *Tx) error {
		tx.Abort(nil)
		return nil
	})
	if err == nil {
		t.Fatal("Abort(nil) committed")
	}
}

func TestRetryErrorMessage(t *testing.T) {
	e := &retryError{cause: errors.New("why")}
	if e.Error() == "" {
		t.Fatal("empty retry error message")
	}
}

// TestGACUnresolvableIntermediateRead: an escaped future observed a
// sub-transaction write that its spawner later overwrote before committing.
// That observation cannot be expressed against committed state, so any
// foreign evaluation must re-execute the future.
func TestGACUnresolvableIntermediateRead(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	ref := stm.NewBoxNamed("ref", nil)
	a := stm.NewBoxNamed("a", 0)
	poison := stm.NewBoxNamed("poison", 0)
	err := sys.Atomic(func(tx *Tx) error {
		tx.Write(a, 1) // intermediate value: the future observes this...
		readDone := make(chan struct{})
		contRead := make(chan struct{})
		var once sync.Once
		// Future bodies may be re-executed, so side effects on captured
		// state must be idempotent.
		f := tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(a).(int)
			once.Do(func() { close(readDone) })
			<-contRead // finish only after the continuation read poison
			ftx.Write(poison, v)
			return v, nil
		})
		<-readDone
		_ = tx.Read(poison) // future cannot serialize at submission
		close(contRead)
		tx.Write(a, 2) // ...but the spawner commits a=2
		tx.Write(ref, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
	if got != 2 {
		t.Fatalf("result = %v, want 2 (re-executed against the committed a)", got)
	}
	if sys.Stats().EscapeReexecutions.Load() != 1 {
		t.Fatalf("stats = %+v", sys.Stats().Snapshot())
	}
}

// TestCrossSystemEvaluation: a future reference handed (out of band) to a
// transaction of a *different* System instance still evaluates correctly —
// the memoized-result path — since its spawning transaction committed.
func TestCrossSystemEvaluation(t *testing.T) {
	stmA := mvstm.New()
	sysA := New(stmA, Options{Ordering: WO, Atomicity: LAC})
	a := stmA.NewBoxNamed("a", 6)
	var f *Future
	if err := sysA.Atomic(func(tx *Tx) error {
		f = tx.Submit(func(ftx *Tx) (any, error) { return ftx.Read(a).(int) * 7, nil })
		_, err := tx.Evaluate(f)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	stmB := mvstm.New()
	sysB := New(stmB, Options{})
	v, err := sysB.AtomicResult(func(tx *Tx) (any, error) { return tx.Evaluate(f) })
	if err != nil || v != 42 {
		t.Fatalf("cross-system evaluate = (%v, %v)", v, err)
	}
}

// TestConcurrentEvaluatorsOfReexecutingFuture: while one flow re-executes a
// parked future at its evaluation point, another evaluator must wait and
// then observe the re-execution's result.
func TestConcurrentEvaluatorsOfReexecutingFuture(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	a := stm.NewBoxNamed("a", 0)
	b := stm.NewBoxNamed("b", 0)
	err := sys.Atomic(func(tx *Tx) error {
		gate := make(chan struct{})
		// This future will park (continuation reads b) and its read of a
		// will be stale (continuation writes a) → re-execution at eval.
		f := tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(a).(int)
			<-gate
			ftx.Write(b, v+1)
			return v + 1, nil
		})
		_ = tx.Read(b)
		tx.Write(a, 10)
		close(gate)

		// Second evaluator races from a sibling future.
		g := tx.Submit(func(gtx *Tx) (any, error) {
			return gtx.Evaluate(f)
		})
		v1, err := tx.Evaluate(f)
		if err != nil {
			return err
		}
		v2, err := tx.Evaluate(g)
		if err != nil {
			return err
		}
		if v1 != 11 || v2 != 11 {
			return fmt.Errorf("evaluators saw %v and %v, want 11", v1, v2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, b); got != 11 {
		t.Fatalf("b = %d", got)
	}
}

// TestSOStragglerSerializesSiblings: under SO a future submitted after a
// slow sibling cannot settle before it (the in-flow merge order).
func TestSOStragglerSerializesSiblings(t *testing.T) {
	sys, stm := newSys(SO, LAC)
	x := stm.NewBoxNamed("x", 0)
	y := stm.NewBoxNamed("y", 0)
	err := sys.Atomic(func(tx *Tx) error {
		slowGate := make(chan struct{})
		// The futures touch disjoint boxes: no conflicts, only ordering.
		slow := tx.Submit(func(ftx *Tx) (any, error) {
			<-slowGate
			ftx.Write(x, ftx.Read(x).(int)+1)
			return nil, nil
		})
		fast := tx.Submit(func(ftx *Tx) (any, error) {
			ftx.Write(y, ftx.Read(y).(int)+1)
			return nil, nil
		})
		<-fast.Done() // fast finished executing...
		select {
		case <-fast.settledCh():
			return errors.New("SO future settled before its slower predecessor")
		default:
		}
		close(slowGate)
		if _, err := tx.Evaluate(slow); err != nil {
			return err
		}
		_, err := tx.Evaluate(fast)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, x) + readInt(t, stm, y); got != 2 {
		t.Fatalf("x+y = %d, want 2", got)
	}
}

// TestTryEvaluatePollingLoop exercises the §3.2 non-blocking pattern: poll
// several futures, consuming results as they become available.
func TestTryEvaluatePollingLoop(t *testing.T) {
	sys, _ := newSys(WO, LAC)
	err := sys.Atomic(func(tx *Tx) error {
		gates := make([]chan struct{}, 3)
		futs := make([]*Future, 3)
		for i := range futs {
			i := i
			gates[i] = make(chan struct{})
			futs[i] = tx.Submit(func(ftx *Tx) (any, error) {
				<-gates[i]
				return i, nil
			})
		}
		// Release in reverse order and poll until all are consumed.
		done := make(map[int]bool)
		for i := len(gates) - 1; i >= 0; i-- {
			close(gates[i])
			for len(done) < len(futs)-i {
				for j, f := range futs {
					if done[j] {
						continue
					}
					if v, ok, err := tx.TryEvaluate(f); err != nil {
						return err
					} else if ok {
						if v != j {
							return fmt.Errorf("future %d returned %v", j, v)
						}
						done[j] = true
					}
				}
			}
		}
		if len(done) != 3 {
			return fmt.Errorf("consumed %d futures", len(done))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManyTopsStressGAC runs escaping futures from many producers consumed
// by many evaluators concurrently.
func TestManyTopsStressGAC(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	const n = 12
	refs := make([]*mvstm.VBox, n)
	for i := range refs {
		refs[i] = stm.NewBoxNamed(fmt.Sprintf("ref%d", i), nil)
	}
	acc := stm.NewBoxNamed("acc", 0)
	var wg sync.WaitGroup
	// Producers: each commits a transaction that leaves an escaping future.
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := sys.Atomic(func(tx *Tx) error {
				f := tx.Submit(func(ftx *Tx) (any, error) {
					return i + 1, nil
				})
				tx.Write(refs[i], f)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	// Consumers: evaluate and accumulate.
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := sys.Atomic(func(tx *Tx) error {
				f := tx.Read(refs[i]).(*Future)
				v, err := tx.Evaluate(f)
				if err != nil {
					return err
				}
				tx.Write(acc, tx.Read(acc).(int)+v.(int))
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	want := n * (n + 1) / 2
	if got := readInt(t, stm, acc); got != want {
		t.Fatalf("acc = %d, want %d", got, want)
	}
}

// settledCh exposes the settle channel to white-box tests.
func (f *Future) settledCh() <-chan struct{} { return f.settled.wait() }
