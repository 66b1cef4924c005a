package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wtftm/internal/mvstm"
	"wtftm/internal/sched"
)

// These tests pin the arena lifetime rule of pool.go: who may still reach an
// attempt's graph memory once it can be handed to another attempt.

// awaitRetired blocks until an arena is on the free list. A transaction's
// arena retires when its last worker lets go of it, which may be a moment
// after Atomic returned; a test that wants the next transaction to reuse it
// waits here first.
func awaitRetired(t *testing.T, sys *System) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sys.arenas.mu.Lock()
		n := len(sys.arenas.free)
		sys.arenas.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no arena was retired")
		}
		runtime.Gosched()
	}
}

// churn commits n transactions of `width` futures each and returns how many
// of them ran in the arena `watch` (nil: don't care).
func churn(t *testing.T, sys *System, boxes []*mvstm.VBox, n, width int, watch *topTx) (reuses int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := sys.Atomic(func(tx *Tx) error {
			if tx.top == watch {
				reuses++
			}
			futs := make([]*Future, width)
			for k := range futs {
				b := boxes[(i+k)%len(boxes)]
				futs[k] = tx.Submit(func(ftx *Tx) (any, error) {
					ftx.Write(b, ftx.Read(b).(int)+1)
					return nil, nil
				})
			}
			for _, f := range futs {
				if _, err := tx.Evaluate(f); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err) // not Fatal: churn also runs off the test goroutine
			break
		}
	}
	return reuses
}

func newBoxes(stm *mvstm.STM, n int) []*mvstm.VBox {
	boxes := make([]*mvstm.VBox, n)
	for i := range boxes {
		boxes[i] = stm.NewBoxNamed(fmt.Sprintf("b%d", i), 0)
	}
	return boxes
}

// TestRetainedHandleSurvivesArenaReuse: a handle kept past its transaction
// returns the memoized outcome after its arena served a thousand other
// transactions, whether the spawner committed, its body aborted, or the
// spawning attempt itself aborted.
func TestRetainedHandleSurvivesArenaReuse(t *testing.T) {
	for _, ord := range []Ordering{WO, SO} {
		t.Run(ord.String(), func(t *testing.T) {
			sys, stm := newSys(ord, LAC)
			boxes := newBoxes(stm, 8)
			errBody := errors.New("body said no")
			var arena *topTx
			var merged, failed, stale *Future
			err := sys.Atomic(func(tx *Tx) error {
				arena = tx.top
				merged = tx.Submit(func(ftx *Tx) (any, error) {
					ftx.Write(boxes[0], 41)
					return 42, nil
				})
				failed = tx.Submit(func(*Tx) (any, error) { return nil, errBody })
				if v, err := tx.Evaluate(merged); err != nil || v != 42 {
					return fmt.Errorf("local evaluate: %v, %v", v, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// Every transaction below waits for the previous one's arena to
			// retire, so this System only ever has the one arena.
			awaitRetired(t, sys)
			errTop := errors.New("top said no")
			err = sys.Atomic(func(tx *Tx) error {
				if tx.top != arena {
					t.Error("the aborting transaction did not reuse the arena")
				}
				stale = tx.Submit(func(*Tx) (any, error) { return 7, nil })
				return errTop
			})
			if !errors.Is(err, errTop) {
				t.Fatalf("aborting transaction returned %v", err)
			}
			reuses := 0
			for i := 0; i < 1000; i++ {
				awaitRetired(t, sys)
				reuses += churn(t, sys, boxes, 1, 3, arena)
			}
			if reuses != 1000 {
				t.Fatalf("the arena was reused %d times by 1000 transactions", reuses)
			}

			check := func(where string, eval func(*Future) (any, error)) {
				if v, err := eval(merged); err != nil || v != 42 {
					t.Errorf("%s: merged handle gave %v, %v; want 42", where, v, err)
				}
				if _, err := eval(failed); !errors.Is(err, errBody) {
					t.Errorf("%s: user-aborted handle gave %v; want its body's error", where, err)
				}
				if _, err := eval(stale); !errors.Is(err, ErrStaleFuture) {
					t.Errorf("%s: handle of an aborted attempt gave %v; want ErrStaleFuture", where, err)
				}
			}
			check("outside", sys.Evaluate)
			err = sys.Atomic(func(tx *Tx) error {
				// Between futures of its own, so the evaluating attempt has an
				// outcome record too and still tells the handles apart.
				own := tx.Submit(func(*Tx) (any, error) { return 1, nil })
				check("inside", tx.Evaluate)
				_, err := tx.Evaluate(own)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEscapedAttemptIsNeverRecycled: under GAC an attempt that commits while
// one of its futures is still unserialized keeps its arena out of the free
// list, so the transaction that later evaluates the escapee resolves it
// against intact vertices — while other transactions churn the free list.
func TestEscapedAttemptIsNeverRecycled(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	boxes := newBoxes(stm, 8)
	src, dst := stm.NewBoxNamed("src", 5), stm.NewBoxNamed("dst", 0)

	committed := make(chan struct{})
	var arena *topTx
	var esc, early *Future
	err := sys.Atomic(func(tx *Tx) error {
		arena = tx.top
		tx.Write(src, 6) // the escapee observes a sub-transaction write
		early = tx.Submit(func(*Tx) (any, error) { return "early", nil })
		if _, err := tx.Evaluate(early); err != nil {
			return err
		}
		esc = tx.Submit(func(ftx *Tx) (any, error) {
			<-committed // still running when the spawner commits: it escapes
			v := ftx.Read(src).(int)
			ftx.Write(dst, v*10)
			return v, nil
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(committed)
	<-esc.settledCh()
	if early.top != nil || early.vertex != nil {
		t.Error("a merged future of a kept arena still points into it")
	}

	// Churn the free list from several goroutines while another transaction
	// evaluates the escapee.
	var wg sync.WaitGroup
	var reused atomic.Int64
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reused.Add(int64(churn(t, sys, boxes, 400, 3, arena)))
		}()
	}
	var got any
	err = sys.Atomic(func(tx *Tx) error {
		v, err := tx.Evaluate(esc)
		got = v
		return err
	})
	wg.Wait()
	if err != nil || got != 6 {
		t.Fatalf("evaluating the escapee: %v, %v; want 6", got, err)
	}
	if v := readInt(t, stm, dst); v != 60 {
		t.Fatalf("dst = %d, want 60 (the escapee's write, serialized by its evaluator)", v)
	}
	if n := reused.Load(); n != 0 {
		t.Fatalf("the escaped attempt's arena was handed to %d other transactions", n)
	}
	sys.arenas.mu.Lock()
	defer sys.arenas.mu.Unlock()
	for _, a := range sys.arenas.free {
		if a == arena {
			t.Fatal("the escaped attempt's arena is on the free list")
		}
	}
	if sys.Stats().EscapedFutures.Load() != 1 {
		t.Fatalf("EscapedFutures = %d, want 1", sys.Stats().EscapedFutures.Load())
	}
}

// gateHook is a scheduler hook that lets everything run freely except that a
// write to the box named "gate" blocks until the gate opens. Waits the
// engine delegates to it are polled.
type gateHook struct {
	armed   atomic.Bool
	blocked chan struct{} // closed when a task reached the gate
	open    chan struct{}
}

func (h *gateHook) Yield(p sched.Point, label string) {
	if p == sched.PointWrite && label == "gate" && h.armed.CompareAndSwap(true, false) {
		close(h.blocked)
		<-h.open
	}
}

func (h *gateHook) Park(ready func() bool) {
	for !ready() {
		time.Sleep(50 * time.Microsecond)
	}
}
func (h *gateHook) SpawnExpected() {}
func (h *gateHook) TaskBegin()     {}
func (h *gateHook) TaskEnd()       {}

// TestStragglerKeepsItsArena: the body of an aborted attempt that is still
// running (what unit.wg guards in the server) holds its arena back: the
// retry and a hundred later transactions run elsewhere, and only when the
// straggler has settled does the arena become reusable.
func TestStragglerKeepsItsArena(t *testing.T) {
	hook := &gateHook{blocked: make(chan struct{}), open: make(chan struct{})}
	hook.armed.Store(true)
	stm := mvstm.New()
	sys := New(stm, Options{Ordering: WO, Atomicity: GAC, Hook: hook})
	boxes := newBoxes(stm, 8)
	gate, x := stm.NewBoxNamed("gate", 0), stm.NewBoxNamed("x", 0)

	var first *topTx
	var straggler *Future
	attempts := 0
	err := sys.Atomic(func(tx *Tx) error {
		attempts++
		tx.Write(boxes[1], tx.Read(x).(int)+attempts) // read-write: the commit validates x
		f := tx.Submit(func(ftx *Tx) (any, error) {
			ftx.Write(gate, 1) // parks here on the first attempt only
			ftx.Write(boxes[0], 99)
			return nil, nil
		})
		if attempts == 1 {
			first, straggler = tx.top, f
			<-hook.blocked
			// Another transaction overwrites what this attempt read: its
			// commit conflicts and it retries, leaving the body behind.
			return sys.Atomic(func(other *Tx) error { other.Write(x, 1); return nil })
		}
		if tx.top == first {
			return errors.New("the retry runs in the straggler's arena")
		}
		_, err := tx.Evaluate(f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("%d attempts, want 2", attempts)
	}
	if n := churn(t, sys, boxes, 100, 3, first); n != 0 {
		t.Fatalf("the straggler's arena was handed to %d other transactions", n)
	}

	close(hook.open)
	<-straggler.settledCh()
	if st := straggler.getState(); st != fStale {
		t.Fatalf("straggler settled in state %d, want stale", st)
	}
	if v := readInt(t, stm, boxes[0]); v == 99 {
		t.Fatal("the straggler's write reached committed state")
	}
	// settled fires just before the reference drops; the arena is free once
	// it has.
	deadline := time.Now().Add(5 * time.Second)
	for churn(t, sys, boxes, 1, 1, first) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the arena was not reused after the straggler settled")
		}
		runtime.Gosched()
	}
}

// TestSettledHandlePinsNothing: once a future settled for good, its handle
// keeps neither the arena nor the body (and what the body captured) alive.
func TestSettledHandlePinsNothing(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	freed := make(chan struct{})
	var kept []*Future
	err := sys.Atomic(func(tx *Tx) error {
		big := new([1 << 20]byte)
		runtime.SetFinalizer(big, func(*[1 << 20]byte) { close(freed) })
		f := tx.Submit(func(ftx *Tx) (any, error) {
			ftx.Write(x, int(big[0])+1)
			return "done", nil
		})
		kept = append(kept, f, tx.Submit(func(*Tx) (any, error) { return nil, errors.New("no") }))
		_, err := tx.Evaluate(f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range kept {
		if f.top != nil || f.body != nil || f.vertex != nil || f.cont != nil || f.ftx != nil || f.prevInFlow != nil {
			t.Errorf("settled handle %d still points into its attempt: %+v", i, f)
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if v, err := sys.Evaluate(kept[0]); err != nil || v != "done" {
				t.Fatalf("retained handle: %v, %v", v, err)
			}
			return
		case <-deadline:
			t.Fatal("a settled handle (or a free arena) keeps the future's body alive")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestBlockedBodiesDoNotStarveWorkers: bodies that wait for each other
// through a channel of the program all get a goroutine, however many more
// of them there are than parked workers.
func TestBlockedBodiesDoNotStarveWorkers(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	boxes := newBoxes(stm, 4)
	churn(t, sys, boxes, 4, 4, nil) // leave a few workers parked

	const n = workerIdleMax + 16
	done := make(chan error, 1)
	go func() {
		done <- sys.Atomic(func(tx *Tx) error {
			// Body i finishes only after body i+1 did; the last one is free.
			links := make([]chan struct{}, n+1)
			for i := range links {
				links[i] = make(chan struct{})
			}
			close(links[n])
			futs := make([]*Future, n)
			for i := range futs {
				futs[i] = tx.Submit(func(*Tx) (any, error) {
					<-links[i+1]
					close(links[i])
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
	case <-time.After(20 * time.Second):
		t.Fatal("bodies waiting on each other starved: some body never got a goroutine")
	}
	sys.workers.mu.Lock()
	idle := len(sys.workers.idle)
	sys.workers.mu.Unlock()
	if idle > workerIdleMax {
		t.Fatalf("%d workers parked, the idle set is bounded at %d", idle, workerIdleMax)
	}
}
