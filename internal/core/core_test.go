package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"wtftm/internal/mvstm"
)

func newSys(ord Ordering, at Atomicity) (*System, *mvstm.STM) {
	stm := mvstm.New()
	return New(stm, Options{Ordering: ord, Atomicity: at}), stm
}

func readInt(t testing.TB, stm *mvstm.STM, b *mvstm.VBox) int {
	t.Helper()
	tx := stm.Begin()
	defer tx.Discard()
	return tx.Read(b).(int)
}

func TestAtomicNoFutures(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 10)
	err := sys.Atomic(func(tx *Tx) error {
		tx.Write(x, tx.Read(x).(int)+5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, x); got != 15 {
		t.Fatalf("x = %d, want 15", got)
	}
	if c := sys.Stats().TopCommits.Load(); c != 1 {
		t.Fatalf("TopCommits = %d", c)
	}
}

func TestFutureSeesSpawnerWrites(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	err := sys.Atomic(func(tx *Tx) error {
		tx.Write(x, 1)
		f := tx.Submit(func(ftx *Tx) (any, error) {
			return ftx.Read(x), nil
		})
		v, err := tx.Evaluate(f)
		if err != nil {
			return err
		}
		if v != 1 {
			return fmt.Errorf("future saw x=%v, want 1 (spawner iCommit)", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContinuationSeesMergedFutureWrites(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			ftx.Write(x, 42)
			return nil, nil
		})
		if _, err := tx.Evaluate(f); err != nil {
			return err
		}
		if got := tx.Read(x); got != 42 {
			return fmt.Errorf("after evaluate, x=%v, want 42", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, x); got != 42 {
		t.Fatalf("committed x = %d, want 42", got)
	}
}

// TestPaperFig1a runs the basic example of §3.1: whichever side of the
// continuation the future serializes on, the increments compose because they
// are mutually atomic.
func TestPaperFig1a(t *testing.T) {
	for round := 0; round < 50; round++ {
		sys, stm := newSys(WO, LAC)
		x := stm.NewBoxNamed("x", 0)
		y := stm.NewBoxNamed("y", 0)
		err := sys.Atomic(func(tx *Tx) error {
			tx.Write(x, 1)
			f := tx.Submit(func(ftx *Tx) (any, error) {
				ftx.Write(x, ftx.Read(x).(int)+1)
				return nil, nil
			})
			tx.Write(x, tx.Read(x).(int)+1)
			if _, err := tx.Evaluate(f); err != nil {
				return err
			}
			tx.Write(y, tx.Read(x))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := readInt(t, stm, x); got != 3 {
			t.Fatalf("round %d: x = %d, want 3", round, got)
		}
		if got := readInt(t, stm, y); got != 3 {
			t.Fatalf("round %d: y = %d, want 3", round, got)
		}
	}
}

// TestFig2WOSparesContinuation forces the history of Fig. 2: the future
// writes z after the continuation read z. Under WO the future serializes at
// its evaluation and nobody aborts.
func TestFig2WOSparesContinuation(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	y := stm.NewBoxNamed("y", 0)
	z := stm.NewBoxNamed("z", 0)
	err := sys.Atomic(func(tx *Tx) error {
		contRead := make(chan struct{})
		f := tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(x)
			<-contRead // ensure the continuation reads z first
			ftx.Write(z, 1)
			return v, nil
		})
		if got := tx.Read(z); got != 0 {
			return fmt.Errorf("continuation read z=%v, want 0", got)
		}
		tx.Write(y, 1)
		close(contRead)
		if _, err := tx.Evaluate(f); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats().Snapshot()
	if st.MergedAtEvaluation != 1 {
		t.Fatalf("MergedAtEvaluation = %d, want 1 (future serialized upon evaluation)", st.MergedAtEvaluation)
	}
	if st.FutureReexecutions != 0 || st.TopInternal != 0 {
		t.Fatalf("unexpected aborts: %+v", st)
	}
	if readInt(t, stm, z) != 1 || readInt(t, stm, y) != 1 {
		t.Fatalf("final state z=%d y=%d", readInt(t, stm, z), readInt(t, stm, y))
	}
}

// TestFig2SOAbortsContinuation runs the same history under SO: the
// continuation must abort (modeled as an internal top-level retry). The
// future validates while the continuation's vertex is still active, so the
// continuation's read of z reaches the validation only through that
// vertex's read log (the ledger's ReadUnpublished).
func TestFig2SOAbortsContinuation(t *testing.T) { fig2SOAbortsContinuation(t) }

func fig2SOAbortsContinuation(t testing.TB) {
	sys, stm := newSys(SO, LAC)
	x := stm.NewBoxNamed("x", 0)
	y := stm.NewBoxNamed("y", 0)
	z := stm.NewBoxNamed("z", 0)
	attempt := 0
	err := sys.Atomic(func(tx *Tx) error {
		attempt++
		race := attempt == 1
		contRead := make(chan struct{})
		f := tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(x)
			if race {
				<-contRead
			}
			ftx.Write(z, 1)
			return v, nil
		})
		if race {
			_ = tx.Read(z) // reads stale z: the SO future must win
			close(contRead)
		}
		tx.Write(y, 1)
		if _, err := tx.Evaluate(f); err != nil {
			return err
		}
		if !race {
			_ = tx.Read(z)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempt < 2 {
		t.Fatalf("attempts = %d, want >= 2 (SO continuation conflict)", attempt)
	}
	if got := sys.Stats().TopInternal.Load(); got < 1 {
		t.Fatalf("TopInternal = %d, want >= 1", got)
	}
	if readInt(t, stm, z) != 1 {
		t.Fatalf("z = %d, want 1", readInt(t, stm, z))
	}
	_ = y
}

// TestFig4OverlappingContinuations reproduces the beyond-fork-join example:
// two futures whose continuations partially overlap.
func TestFig4OverlappingContinuations(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	y := stm.NewBoxNamed("y", 0)
	z := stm.NewBoxNamed("z", 0)
	err := sys.Atomic(func(tx *Tx) error {
		f1 := tx.Submit(func(ftx *Tx) (any, error) {
			a := ftx.Read(x).(int)
			b := ftx.Read(y).(int)
			return a + b, nil
		})
		tx.Write(x, 1)
		f2 := tx.Submit(func(ftx *Tx) (any, error) {
			a := ftx.Read(y).(int)
			b := ftx.Read(z).(int)
			return a + b, nil
		})
		tx.Write(y, 10)
		tx.Write(z, 100)
		r1, err := tx.Evaluate(f1)
		if err != nil {
			return err
		}
		r2, err := tx.Evaluate(f2)
		if err != nil {
			return err
		}
		// f1 must see {x,y} written both or neither: sums 0 or 11.
		if r1 != 0 && r1 != 11 {
			return fmt.Errorf("f1 saw torn continuation: %v", r1)
		}
		// f2 must see {y,z} written both or neither, and always sees x's
		// spawner-side effect indirectly irrelevant: sums 0 or 110.
		if r2 != 0 && r2 != 110 {
			return fmt.Errorf("f2 saw torn continuation: %v", r2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedEvaluationIdempotent(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 7)
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			return ftx.Read(x).(int) * 2, nil
		})
		v1, err := tx.Evaluate(f)
		if err != nil {
			return err
		}
		v2, err := tx.Evaluate(f)
		if err != nil {
			return err
		}
		if v1 != v2 || v1 != 14 {
			return fmt.Errorf("repeated evaluation differed: %v vs %v", v1, v2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryEvaluateNonBlocking(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 1)
	err := sys.Atomic(func(tx *Tx) error {
		gate := make(chan struct{})
		f := tx.Submit(func(ftx *Tx) (any, error) {
			<-gate
			return ftx.Read(x), nil
		})
		if _, ok, _ := tx.TryEvaluate(f); ok {
			return errors.New("TryEvaluate returned ok for a running future")
		}
		close(gate)
		<-f.Done()
		v, ok, err := tx.TryEvaluate(f)
		if err != nil {
			return err
		}
		if !ok || v != 1 {
			return fmt.Errorf("TryEvaluate after done = (%v,%v)", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedFutures(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	err := sys.Atomic(func(tx *Tx) error {
		outer := tx.Submit(func(otx *Tx) (any, error) {
			otx.Write(x, 1)
			inner := otx.Submit(func(itx *Tx) (any, error) {
				// Sees the outer future's pre-submit write.
				return itx.Read(x).(int) + 10, nil
			})
			v, err := otx.Evaluate(inner)
			if err != nil {
				return nil, err
			}
			otx.Write(x, v)
			return v, nil
		})
		v, err := tx.Evaluate(outer)
		if err != nil {
			return err
		}
		if v != 11 {
			return fmt.Errorf("nested result = %v, want 11", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, x); got != 11 {
		t.Fatalf("x = %d, want 11", got)
	}
}

// TestFig1bEscapingWithinTopLevel: a future submitted by a future escapes
// its spawner but is evaluated within the same top-level transaction. Its
// continuation spans two sub-transactions (the spawning future's write on x
// and the main flow's write on y): it must observe both writes or neither.
func TestFig1bEscapingWithinTopLevel(t *testing.T) {
	for round := 0; round < 30; round++ {
		sys, stm := newSys(WO, LAC)
		x := stm.NewBoxNamed("x", 0)
		y := stm.NewBoxNamed("y", 0)
		q := stm.NewBoxNamed("q", 0)
		err := sys.Atomic(func(tx *Tx) error {
			f1 := tx.Submit(func(f1tx *Tx) (any, error) {
				f2 := f1tx.Submit(func(f2tx *Tx) (any, error) {
					a := f2tx.Read(x).(int)
					b := f2tx.Read(y).(int)
					f2tx.Write(q, 9)
					return a + b, nil
				})
				f1tx.Write(x, 1)
				return f2, nil
			})
			ref, err := tx.Evaluate(f1)
			if err != nil {
				return err
			}
			f2 := ref.(*Future)
			tx.Write(y, 2)
			res, err := tx.Evaluate(f2)
			if err != nil {
				return err
			}
			if res != 0 && res != 3 {
				return fmt.Errorf("escaping future saw torn continuation: %v", res)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFig1bForcedReexecution forces the torn case: the main flow reads q
// (written by f2) before evaluating f2, so f2 cannot serialize at
// submission, and the main flow's write on y makes its reads stale, so it
// re-executes at evaluation and must then see both x and y.
func TestFig1bForcedReexecution(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	y := stm.NewBoxNamed("y", 0)
	q := stm.NewBoxNamed("q", 0)
	err := sys.Atomic(func(tx *Tx) error {
		gate := make(chan struct{})
		f1 := tx.Submit(func(f1tx *Tx) (any, error) {
			f2 := f1tx.Submit(func(f2tx *Tx) (any, error) {
				a := f2tx.Read(x).(int)
				b := f2tx.Read(y).(int)
				<-gate // complete only after the main flow read q
				f2tx.Write(q, 9)
				return a + b, nil
			})
			f1tx.Write(x, 1)
			return f2, nil
		})
		ref, err := tx.Evaluate(f1)
		if err != nil {
			return err
		}
		f2 := ref.(*Future)
		if got := tx.Read(q); got != 0 {
			return fmt.Errorf("q=%v before f2 serialized", got)
		}
		tx.Write(y, 2)
		close(gate)
		res, err := tx.Evaluate(f2)
		if err != nil {
			return err
		}
		if res != 3 {
			return fmt.Errorf("re-executed escaping future saw %v, want 3 (x=1,y=2)", res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stats().FutureReexecutions.Load() < 1 {
		t.Fatalf("expected a re-execution, stats=%+v", sys.Stats().Snapshot())
	}
	if got := readInt(t, stm, q); got != 9 {
		t.Fatalf("q = %d, want 9", got)
	}
}

// TestFig1cGACEscapeAcrossTopLevels: T1 spawns a future and commits without
// evaluating it (GAC: no blocking); T2 obtains the reference through shared
// memory and evaluates it.
func TestFig1cGACEscapeAcrossTopLevels(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	ref := stm.NewBoxNamed("ref", nil)
	a := stm.NewBoxNamed("a", 5)
	b := stm.NewBoxNamed("b", 0)
	gate := make(chan struct{})

	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(a).(int)
			<-gate // still running when T1 commits
			ftx.Write(b, v*2)
			return v * 2, nil
		})
		tx.Write(ref, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	var got any
	err = sys.Atomic(func(tx *Tx) error {
		f := tx.Read(ref).(*Future)
		v, err := tx.Evaluate(f)
		if err != nil {
			return err
		}
		got = v
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("escaped future result = %v, want 10", got)
	}
	if readInt(t, stm, b) != 10 {
		t.Fatalf("b = %d, want 10 (committed by evaluator)", readInt(t, stm, b))
	}
	if sys.Stats().EscapedFutures.Load() < 1 {
		t.Fatalf("expected an escaped future, stats=%+v", sys.Stats().Snapshot())
	}
}

// TestGACEscapeStaleReexecutes: between the spawner's commit and the
// evaluation, another transaction overwrites what the escaped future read;
// the evaluator must re-execute it.
func TestGACEscapeStaleReexecutes(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	ref := stm.NewBoxNamed("ref", nil)
	a := stm.NewBoxNamed("a", 5)
	b := stm.NewBoxNamed("b", 0)

	err := sys.Atomic(func(tx *Tx) error {
		gate := make(chan struct{})
		f := tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(a).(int)
			<-gate // finish only after the continuation read b
			ftx.Write(b, v*2)
			return v * 2, nil
		})
		// Force the future to miss submission: read b in the continuation
		// before the future writes it.
		_ = tx.Read(b)
		close(gate)
		tx.Write(ref, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Invalidate the escaped future's read of a.
	if err := sys.Atomic(func(tx *Tx) error { tx.Write(a, 100); return nil }); err != nil {
		t.Fatal(err)
	}

	var got any
	err = sys.Atomic(func(tx *Tx) error {
		f := tx.Read(ref).(*Future)
		v, err := tx.Evaluate(f)
		if err != nil {
			return err
		}
		got = v
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 200 {
		t.Fatalf("stale escaped future result = %v, want 200 (re-executed against a=100)", got)
	}
	if readInt(t, stm, b) != 200 {
		t.Fatalf("b = %d, want 200", readInt(t, stm, b))
	}
	if sys.Stats().EscapeReexecutions.Load() != 1 {
		t.Fatalf("EscapeReexecutions = %d, want 1", sys.Stats().EscapeReexecutions.Load())
	}
}

// TestFig1dLACImplicitEvaluation: under LAC the spawning top-level
// transaction implicitly evaluates the escaping future at commit; a later
// explicit evaluation returns the same (memoized) result. In the gated input
// the body is still running when the spawner commits: it waits at a gate
// that opens only when the commit parks on it, so a commit that did not wait
// for the escapee would return before the body finished.
func TestFig1dLACImplicitEvaluation(t *testing.T) {
	for _, in := range []struct {
		name  string
		gated bool
	}{{"free", false}, {"gated", true}} {
		t.Run(in.name, func(t *testing.T) {
			stm := mvstm.New()
			opts := Options{Ordering: WO, Atomicity: LAC}
			var hook *parkGate
			if in.gated {
				hook = &parkGate{gateHook: gateHook{blocked: make(chan struct{}), open: make(chan struct{})}}
				hook.armed.Store(true)
				opts.Hook = hook
				defer hook.release()
			}
			sys := New(stm, opts)
			ref := stm.NewBoxNamed("ref", nil)
			a := stm.NewBoxNamed("a", 5)
			b := stm.NewBoxNamed("b", 0)
			gate := stm.NewBoxNamed("gate", 0)

			var finished atomic.Bool
			err := sys.Atomic(func(tx *Tx) error {
				f := tx.Submit(func(ftx *Tx) (any, error) {
					ftx.Write(gate, 1) // gated: parks until the commit waits
					v := ftx.Read(a).(int)
					ftx.Write(b, v*2)
					finished.Store(true)
					return v * 2, nil
				})
				tx.Write(ref, f)
				if in.gated {
					<-hook.blocked // the body is running on a worker
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !finished.Load() {
				t.Fatal("Atomic returned before the escaping body finished")
			}
			// LAC: the future's effects committed with T1.
			if readInt(t, stm, b) != 10 {
				t.Fatalf("b = %d, want 10 (implicit evaluation at commit)", readInt(t, stm, b))
			}

			var got any
			err = sys.Atomic(func(tx *Tx) error {
				f := tx.Read(ref).(*Future)
				v, err := tx.Evaluate(f)
				if err != nil {
					return err
				}
				got = v
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != 10 {
				t.Fatalf("repeated evaluation = %v, want 10", got)
			}
		})
	}
}

// parkGate is a gateHook whose gate opens at the first wait the engine
// parks on: a body held at the gate finishes only if someone waits for it.
type parkGate struct {
	gateHook
	once sync.Once
}

func (h *parkGate) Park(ready func() bool) {
	h.release()
	h.gateHook.Park(ready)
}

func (h *parkGate) release() { h.once.Do(func() { close(h.open) }) }

func TestFutureUserErrorDiscardsWrites(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	boom := errors.New("boom")
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			ftx.Write(x, 99)
			return nil, boom
		})
		_, err := tx.Evaluate(f)
		if !errors.Is(err, boom) {
			return fmt.Errorf("evaluate err = %v, want boom", err)
		}
		return nil // top-level still commits
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, x); got != 0 {
		t.Fatalf("aborted future's write leaked: x = %d", got)
	}
}

func TestFuturePanicBecomesError(t *testing.T) {
	sys, _ := newSys(WO, LAC)
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			panic("kaboom")
		})
		_, err := tx.Evaluate(f)
		if err == nil {
			return errors.New("panic not surfaced")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUserAbortPermanent(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	sentinel := errors.New("stop")
	err := sys.Atomic(func(tx *Tx) error {
		tx.Write(x, 1)
		tx.Abort(sentinel)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if got := readInt(t, stm, x); got != 0 {
		t.Fatalf("aborted write leaked: x = %d", got)
	}
}

func TestTopLevelConflictRetries(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	attempts := 0
	err := sys.Atomic(func(tx *Tx) error {
		attempts++
		v := tx.Read(x).(int)
		if attempts == 1 {
			if err := sys.Atomic(func(tx2 *Tx) error { tx2.Write(x, 100); return nil }); err != nil {
				return err
			}
		}
		tx.Write(x, v+1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if got := readInt(t, stm, x); got != 101 {
		t.Fatalf("x = %d, want 101", got)
	}
	if got := sys.Stats().TopConflict.Load(); got != 1 {
		t.Fatalf("TopConflict = %d, want 1", got)
	}
}

func TestMaxRetriesExhausted(t *testing.T) {
	stm := mvstm.New()
	sys := New(stm, Options{Ordering: WO, Atomicity: LAC, MaxRetries: 3})
	x := stm.NewBoxNamed("x", 0)
	attempts := 0
	err := sys.Atomic(func(tx *Tx) error {
		attempts++
		_ = tx.Read(x)
		// Always interfere.
		if err := sys.Atomic(func(tx2 *Tx) error { tx2.Write(x, attempts); return nil }); err != nil {
			return err
		}
		tx.Write(x, -1)
		return nil
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

// TestStaleFuturesAfterRetry: futures spawned by an aborted attempt never
// contaminate the committed state.
func TestStaleFuturesAfterRetry(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	y := stm.NewBoxNamed("y", 0)
	attempts := 0
	err := sys.Atomic(func(tx *Tx) error {
		attempts++
		me := attempts
		f := tx.Submit(func(ftx *Tx) (any, error) {
			ftx.Write(y, me*10)
			return nil, nil
		})
		_ = tx.Read(x)
		if attempts == 1 {
			if err := sys.Atomic(func(tx2 *Tx) error { tx2.Write(x, 1); return nil }); err != nil {
				return err
			}
		}
		if _, err := tx.Evaluate(f); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, y); got != 20 {
		t.Fatalf("y = %d, want 20 (from the committed attempt only)", got)
	}
}

// TestSOEquivalentToSequential: under SO, a program using futures computes
// exactly what its sequential elision computes, even with non-commutative
// operations.
func TestSOEquivalentToSequential(t *testing.T) {
	run := func(useFutures bool) int {
		sys, stm := newSys(SO, LAC)
		x := stm.NewBoxNamed("x", 1)
		err := sys.Atomic(func(tx *Tx) error {
			step := func(s *Tx, m, c int) {
				s.Write(x, s.Read(x).(int)*m+c)
			}
			if useFutures {
				f1 := tx.Submit(func(ftx *Tx) (any, error) { step(ftx, 2, 3); return nil, nil })
				step(tx, 5, 7)
				f2 := tx.Submit(func(ftx *Tx) (any, error) { step(ftx, 11, 13); return nil, nil })
				step(tx, 17, 19)
				if _, err := tx.Evaluate(f2); err != nil {
					return err
				}
				if _, err := tx.Evaluate(f1); err != nil {
					return err
				}
			} else {
				step(tx, 2, 3) // future 1 at its submission point
				step(tx, 5, 7)
				step(tx, 11, 13) // future 2 at its submission point
				step(tx, 17, 19)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return readInt(t, stm, x)
	}
	seq := run(false)
	for i := 0; i < 25; i++ {
		if got := run(true); got != seq {
			t.Fatalf("SO run %d produced %d, sequential = %d", i, got, seq)
		}
	}
}

// TestConcurrentTopLevelsWithFutures is a conservation stress test: many
// top-level transactions transfer between accounts using futures.
func TestConcurrentTopLevelsWithFutures(t *testing.T) {
	for _, ord := range []Ordering{WO, SO} {
		t.Run(ord.String(), func(t *testing.T) {
			sys, stm := newSys(ord, LAC)
			const nAcc = 16
			boxes := make([]*mvstm.VBox, nAcc)
			for i := range boxes {
				boxes[i] = stm.NewBoxNamed(fmt.Sprintf("acc%d", i), 100)
			}
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						from := (g*7 + i) % nAcc
						to := (g*13 + i*5 + 1) % nAcc
						err := sys.Atomic(func(tx *Tx) error {
							f := tx.Submit(func(ftx *Tx) (any, error) {
								ftx.Write(boxes[from], ftx.Read(boxes[from]).(int)-1)
								return nil, nil
							})
							tx.Write(boxes[to], tx.Read(boxes[to]).(int)+1)
							_, err := tx.Evaluate(f)
							return err
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			sum := 0
			for _, b := range boxes {
				sum += readInt(t, stm, b)
			}
			if sum != nAcc*100 {
				t.Fatalf("sum = %d, want %d", sum, nAcc*100)
			}
		})
	}
}

// TestManyFuturesFanOut exercises a wide fan-out with out-of-order
// evaluation under WO.
func TestManyFuturesFanOut(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	const n = 32
	boxes := make([]*mvstm.VBox, n)
	for i := range boxes {
		boxes[i] = stm.NewBoxNamed(fmt.Sprintf("b%d", i), i)
	}
	err := sys.Atomic(func(tx *Tx) error {
		futs := make([]*Future, n)
		for i := 0; i < n; i++ {
			i := i
			futs[i] = tx.Submit(func(ftx *Tx) (any, error) {
				ftx.Write(boxes[i], ftx.Read(boxes[i]).(int)*2)
				return i, nil
			})
		}
		// Evaluate in reverse order (out of order w.r.t. submission).
		for i := n - 1; i >= 0; i-- {
			v, err := tx.Evaluate(futs[i])
			if err != nil {
				return err
			}
			if v != i {
				return fmt.Errorf("future %d returned %v", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range boxes {
		if got := readInt(t, stm, b); got != i*2 {
			t.Fatalf("box %d = %d, want %d", i, got, i*2)
		}
	}
}

// TestWOFutureConflictsWithContinuationHotSpot mirrors the Fig. 7 workload
// shape: futures write hot spots the continuation reads; WO must resolve
// everything without internal aborts of continuations.
func TestWOFutureConflictsWithContinuationHotSpot(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	hot := stm.NewBoxNamed("hot", 0)
	total := 0
	err := sys.Atomic(func(tx *Tx) error {
		for i := 0; i < 8; i++ {
			f := tx.Submit(func(ftx *Tx) (any, error) {
				ftx.Write(hot, ftx.Read(hot).(int)+1)
				return nil, nil
			})
			_ = tx.Read(hot) // conflict-prone continuation read
			if _, err := tx.Evaluate(f); err != nil {
				return err
			}
		}
		total = tx.Read(hot).(int)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatalf("hot = %d, want 8 (all increments serialized)", total)
	}
	if got := sys.Stats().TopInternal.Load(); got != 0 {
		t.Fatalf("WO caused %d internal top-level aborts", got)
	}
}

func TestFutureResultTypes(t *testing.T) {
	sys, _ := newSys(WO, LAC)
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			return []string{"a", "b"}, nil
		})
		v, err := tx.Evaluate(f)
		if err != nil {
			return err
		}
		if s := v.([]string); len(s) != 2 || s[0] != "a" {
			return fmt.Errorf("bad result %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtomicResultValue(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 21)
	v, err := sys.AtomicResult(func(tx *Tx) (any, error) {
		return tx.Read(x).(int) * 2, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("AtomicResult = (%v, %v)", v, err)
	}
}

func TestEvaluateAcrossAbortedTopLevel(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	a := stm.NewBoxNamed("a", 1)
	var stale *Future
	sentinel := errors.New("deliberate")
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) { return ftx.Read(a), nil })
		stale = f
		tx.Abort(sentinel)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	err = sys.Atomic(func(tx *Tx) error {
		_, err := tx.Evaluate(stale)
		if !errors.Is(err, ErrStaleFuture) {
			return fmt.Errorf("evaluate stale = %v, want ErrStaleFuture", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGACConcurrentForeignEvaluators: two top-level transactions race to
// evaluate the same escaped future; both must observe the same result and
// exactly one serialization must commit its writes.
func TestGACConcurrentForeignEvaluators(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	ref := stm.NewBoxNamed("ref", nil)
	a := stm.NewBoxNamed("a", 3)
	b := stm.NewBoxNamed("b", 0)
	gate := make(chan struct{})
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(a).(int)
			<-gate
			ftx.Write(b, v+1)
			return v + 1, nil
		})
		tx.Write(ref, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	results := make([]any, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := sys.Atomic(func(tx *Tx) error {
				f := tx.Read(ref).(*Future)
				v, err := tx.Evaluate(f)
				if err != nil {
					return err
				}
				results[i] = v
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if results[0] != 4 || results[1] != 4 {
		t.Fatalf("results = %v, want both 4", results)
	}
	if got := readInt(t, stm, b); got != 4 {
		t.Fatalf("b = %d, want 4", got)
	}
}

func TestFlowIDs(t *testing.T) {
	sys, _ := newSys(WO, LAC)
	err := sys.Atomic(func(tx *Tx) error {
		if tx.Flow() != 0 {
			return fmt.Errorf("main flow = %d", tx.Flow())
		}
		f := tx.Submit(func(ftx *Tx) (any, error) {
			if ftx.Flow() == 0 {
				return nil, errors.New("future on main flow")
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
