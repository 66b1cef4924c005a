package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wtftm/internal/fsg"
	"wtftm/internal/history"
	"wtftm/internal/mvstm"
	"wtftm/internal/sched"
)

// These tests pin the claim rule of worker.go: whoever reaches a future
// first runs its body — a worker, the evaluating flow or, under
// serialSubmit, the submitter — and a worker is woken only for work nobody
// else will pick up.

// heldWorkers is a scheduler hook that keeps every woken future worker past
// the first `free` wakings at TaskBegin until release, so only the
// program's own flows can claim the bodies they did not take. Waits the
// engine delegates to it are polled.
type heldWorkers struct {
	free  atomic.Int32
	ended atomic.Int32 // wakings whose bodies have returned, settling included
	open  chan struct{}
}

func newHeldWorkers(free int32) *heldWorkers {
	h := &heldWorkers{open: make(chan struct{})}
	h.free.Store(free)
	return h
}

func (h *heldWorkers) release()                  { close(h.open) }
func (h *heldWorkers) Yield(sched.Point, string) {}
func (h *heldWorkers) SpawnExpected()            {}
func (h *heldWorkers) TaskEnd()                  { h.ended.Add(1) }
func (h *heldWorkers) TaskBegin() {
	if h.free.Add(-1) < 0 {
		<-h.open
	}
}
func (h *heldWorkers) Park(ready func() bool) {
	for !ready() {
		time.Sleep(50 * time.Microsecond)
	}
}

// atProcs runs fn at GOMAXPROCS 1 and 4.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// TestEvaluatorClaimedBodyOfAbortedAttempt: a body its evaluator claimed is
// still running when a sibling aborts the attempt. The arena is not wiped
// until that body settled and let go of it; the bodies are joined before
// the retry, as a caller whose bodies write into state it reuses must join
// them; and the retry runs in a wiped arena.
func TestEvaluatorClaimedBodyOfAbortedAttempt(t *testing.T) {
	// One worker runs f1; no other may take f2 from its evaluator.
	hook := newHeldWorkers(1)
	defer hook.release()
	stm := mvstm.New()
	sys := New(stm, Options{Ordering: SO, Atomicity: LAC, Hook: hook})
	x, y := stm.NewBoxNamed("x", 0), stm.NewBoxNamed("y", 0)
	started1, release1 := make(chan struct{}), make(chan struct{})
	inBody, release2 := make(chan struct{}), make(chan struct{})
	var (
		wg       sync.WaitGroup
		first    *topTx
		firstID  int64
		f1, f2   *Future
		attempts int
	)
	done := make(chan error, 1)
	go func() {
		done <- sys.Atomic(func(tx *Tx) error {
			wg.Wait() // the previous attempt's bodies
			attempts++
			if attempts > 1 {
				if tx.top.id == firstID {
					return errors.New("the retry runs as the aborted attempt")
				}
				// wg only joins the bodies: f1's worker may still hold the
				// aborted attempt's last reference, and wipes the arena
				// when it lets go.
				for hook.ended.Load() == 0 {
					time.Sleep(50 * time.Microsecond)
				}
				if f1.top != nil || f2.top != nil {
					return errors.New("the aborted attempt's arena was not wiped once its last body let go")
				}
				if st := f2.getState(); st != fStale {
					return fmt.Errorf("the claimed body settled in state %d, want stale", st)
				}
				f := tx.Submit(func(ftx *Tx) (any, error) { ftx.Write(x, 1); return nil, nil })
				_, err := tx.Evaluate(f)
				return err
			}
			first, firstID = tx.top, tx.top.id
			wg.Add(1)
			f1 = tx.Submit(func(ftx *Tx) (any, error) {
				defer wg.Done()
				close(started1)
				<-release1
				ftx.Write(x, 1) // the continuation read x: SO conflict
				return nil, nil
			})
			<-started1 // f1 runs on a worker
			_ = tx.Read(x)
			wg.Add(1)
			f2 = tx.Submit(func(ftx *Tx) (any, error) {
				defer wg.Done()
				close(inBody)
				<-release2
				ftx.Write(y, ftx.Read(y).(int)+1) // unwinds: the attempt aborted
				return nil, nil
			})
			_, err := tx.Evaluate(f2) // claims f2 and runs it right here
			return err
		})
	}()

	<-inBody
	close(release1)
	<-f1.settledCh()
	if !first.aborted.Load() {
		t.Fatal("f1's continuation conflict did not abort the attempt")
	}
	if f2.getState() != fRunning || f2.top != first {
		t.Fatal("the evaluator-claimed body lost its arena while still running")
	}
	if n := first.refs.Load(); n < 2 {
		t.Fatalf("the aborted attempt holds %d references with its main flow inside a claimed body, want >= 2", n)
	}
	sys.arenas.mu.Lock()
	for _, a := range sys.arenas.free {
		if a == first {
			t.Error("the arena went to the free list while a claimed body still runs in it")
		}
	}
	sys.arenas.mu.Unlock()
	close(release2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("%d attempts, want 2", attempts)
	}
	if sys.Stats().ClaimedAtEvaluation.Load() == 0 {
		t.Fatal("the evaluator did not claim f2")
	}
	if v := readInt(t, stm, y); v != 0 {
		t.Fatalf("the aborted attempt's body wrote y = %d", v)
	}
}

// TestLosingWorkerReadsNoArena: three goroutines churn the free list with
// transactions whose bodies their evaluators and the workers race for; a
// worker that loses a claim must not read the arena the winner may already
// have handed to another attempt (the race detector checks).
func TestLosingWorkerReadsNoArena(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		sys, stm := newSys(WO, LAC)
		boxes := newBoxes(stm, 8)
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					err := sys.Atomic(func(tx *Tx) error {
						futs := make([]*Future, 4)
						for k := range futs {
							b := boxes[(g+k)%len(boxes)]
							futs[k] = tx.Submit(func(ftx *Tx) (any, error) {
								ftx.Write(b, ftx.Read(b).(int)+1)
								return nil, nil
							})
						}
						if i%2 == 0 {
							runtime.Gosched() // let the workers in on the race
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
			}()
		}
		wg.Wait()
		st := sys.Stats().Snapshot()
		if st.ClaimedAtEvaluation == 0 || st.WorkerWakes == 0 {
			t.Fatalf("claimed at evaluation %d, worker wakes %d: the race was never run", st.ClaimedAtEvaluation, st.WorkerWakes)
		}
		total := 0
		for _, b := range boxes {
			total += readInt(t, stm, b)
		}
		if total != 3*300*4 {
			t.Fatalf("sum of boxes = %d, want %d", total, 3*300*4)
		}
	})
}

// TestTryEvaluateNeverClaims: TryEvaluate on a body nobody has started
// reports it unavailable and leaves it to a worker, which runs it and
// merges it at its submission.
func TestTryEvaluateNeverClaims(t *testing.T) {
	hook := newHeldWorkers(0)
	stm := mvstm.New()
	sys := New(stm, Options{Ordering: WO, Atomicity: LAC, Hook: hook})
	x := stm.NewBoxNamed("x", 0)
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			ftx.Write(x, 1)
			return 7, nil
		})
		if _, ok, err := tx.TryEvaluate(f); ok || err != nil {
			return fmt.Errorf("TryEvaluate on an unstarted body: ok=%v err=%v", ok, err)
		}
		if f.claimed.Load() {
			return errors.New("TryEvaluate claimed the body")
		}
		hook.release()
		<-f.Done()
		v, err := tx.Evaluate(f)
		if err != nil || v != 7 {
			return fmt.Errorf("Evaluate: %v, %v", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats().Snapshot()
	if st.ClaimedAtEvaluation != 0 || st.MergedAtSubmission != 1 {
		t.Fatalf("claimed at evaluation %d, merged at submission %d; want 0 and 1", st.ClaimedAtEvaluation, st.MergedAtSubmission)
	}
	if v := readInt(t, stm, x); v != 1 {
		t.Fatalf("x = %d, want 1", v)
	}
}

// TestDoneWithoutEvaluateCompletes is the bank-futures shape: the
// continuation evaluates a future only once Done says its body finished, so
// every body runs on a worker and none is claimed at its evaluation.
func TestDoneWithoutEvaluateCompletes(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		sys, stm := newSys(WO, LAC)
		boxes := newBoxes(stm, 4)
		const n, window = 64, 8
		err := sys.Atomic(func(tx *Tx) error {
			completions := make(chan *Future, n)
			launch := func(i int) {
				b := boxes[i%len(boxes)]
				f := tx.Submit(func(ftx *Tx) (any, error) {
					ftx.Write(b, ftx.Read(b).(int)+1)
					return i, nil
				})
				go func() {
					<-f.Done()
					completions <- f
				}()
			}
			next := 0
			for ; next < window; next++ {
				launch(next)
			}
			for got := 0; got < n; got++ {
				select {
				case f := <-completions:
					if _, err := tx.Evaluate(f); err != nil {
						return err
					}
				case <-time.After(10 * time.Second):
					return fmt.Errorf("%d of %d bodies finished: one waits for a worker nobody woke", got, n)
				}
				if next < n {
					launch(next)
					next++
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if c := sys.Stats().ClaimedAtEvaluation.Load(); c != 0 {
			t.Fatalf("%d bodies claimed at evaluation after Done fired", c)
		}
	})
}

// TestRendezvousBodiesComplete: k futures whose bodies all wait for each
// other through a channel complete, whichever flow claims which — the
// no-starvation promise of lazy wakes.
func TestRendezvousBodiesComplete(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, k := range []int{2, 3} {
			sys, _ := newSys(WO, LAC)
			done := make(chan error, 1)
			go func() {
				done <- sys.Atomic(func(tx *Tx) error {
					all := make(chan struct{})
					var arrived atomic.Int32
					futs := make([]*Future, k)
					for i := range futs {
						futs[i] = tx.Submit(func(*Tx) (any, error) {
							if int(arrived.Add(1)) == k {
								close(all)
							}
							<-all
							return i, nil
						})
					}
					for i, f := range futs {
						if v, err := tx.Evaluate(f); err != nil || v != i {
							return fmt.Errorf("future %d: %v, %v", i, v, err)
						}
					}
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("k=%d: bodies waiting for each other starved", k)
			}
		}
	})
}

// TestSOEvaluateOutOfOrder: under SO, evaluating f2 before f1 runs the
// unstarted f1 first, in flow order, and the recorded history is
// SO-serializable. With the workers held, the evaluator runs both bodies;
// free-running, whoever claims them.
func TestSOEvaluateOutOfOrder(t *testing.T) {
	run := func(t *testing.T, hook sched.Hook) *System {
		rec := history.NewRecorder()
		stm := mvstm.New()
		sys := New(stm, Options{Ordering: SO, Atomicity: LAC, Recorder: rec, Hook: hook})
		x, y := stm.NewBoxNamed("x", 0), stm.NewBoxNamed("y", 0)
		var v2 any
		err := sys.Atomic(func(tx *Tx) error {
			f1 := tx.Submit(func(ftx *Tx) (any, error) {
				ftx.Write(x, 1)
				return nil, nil
			})
			f2 := tx.Submit(func(ftx *Tx) (any, error) {
				v := ftx.Read(x).(int) + 10 // serialized after f1: sees its write
				ftx.Write(y, v)
				return v, nil
			})
			var err error
			if v2, err = tx.Evaluate(f2); err != nil {
				return err
			}
			_, err = tx.Evaluate(f1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if v2 != 11 || readInt(t, stm, y) != 11 || readInt(t, stm, x) != 1 {
			t.Fatalf("f2 = %v, y = %d, x = %d; want 11, 11, 1", v2, readInt(t, stm, y), readInt(t, stm, x))
		}
		h, err := fsg.FromLog(rec.Ops())
		if err != nil {
			t.Fatal(err)
		}
		p, err := fsg.Build(h, fsg.SOsem)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Acyclic() {
			t.Fatal("the history is not SO-serializable")
		}
		return sys
	}
	t.Run("evaluator", func(t *testing.T) {
		hook := newHeldWorkers(0)
		defer hook.release()
		st := run(t, hook).Stats().Snapshot()
		if st.ClaimedAtEvaluation != 2 || st.MergedAtSubmission != 2 || st.TopInternal != 0 {
			t.Fatalf("claimed at evaluation %d, merged at submission %d, SO aborts %d; want 2, 2, 0",
				st.ClaimedAtEvaluation, st.MergedAtSubmission, st.TopInternal)
		}
	})
	atProcs(t, func(t *testing.T) {
		for i := 0; i < 50; i++ {
			run(t, nil)
		}
	})
}
