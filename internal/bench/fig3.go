package bench

import (
	"fmt"
	"io"
	"time"

	"wtftm/internal/core"
)

// Fig3Params configures the straggler scenario of Figure 3: a top-level
// transaction logically composed of commutative sub-tasks, parallelized
// with a bounded number of concurrent futures, one of which is slow.
type Fig3Params struct {
	// Subtasks is the number of commutative sub-tasks (8 in the figure).
	Subtasks int
	// Window is the maximum number of concurrent futures (3).
	Window int
	// TaskIters is the nominal cost of a sub-task.
	TaskIters int
	// StragglerFactor multiplies the first sub-task's cost.
	StragglerFactor int
	// Rounds is the number of measured transactions per variant.
	Rounds int
}

// DefaultFig3 returns a host-scaled version of the figure's scenario.
func DefaultFig3(quick bool) Fig3Params {
	if quick {
		return Fig3Params{Subtasks: 8, Window: 3, TaskIters: 2000, StragglerFactor: 6, Rounds: 3}
	}
	return Fig3Params{Subtasks: 8, Window: 3, TaskIters: 4096, StragglerFactor: 6, Rounds: 10}
}

// Fig3Result compares the makespan of the straggler scenario under the two
// orderings.
type Fig3Result struct {
	Params Fig3Params
	// MakespanWO/MakespanSO are mean per-transaction latencies.
	MakespanWO, MakespanSO time.Duration
}

// RunFig3 measures the scenario. Under SO a new future is activated when
// the *oldest* in-flight one settles (its serialization order); under WO, as
// soon as *any* future completes.
func RunFig3(cfg Config, p Fig3Params) (*Fig3Result, error) {
	run := func(eng Engine) (time.Duration, error) {
		sys, stm := newSystem(eng)
		counter := stm.NewBoxNamed("done", 0)
		var total time.Duration
		for round := 0; round < p.Rounds; round++ {
			start := time.Now()
			err := sys.Atomic(func(tx *core.Tx) error {
				task := func(i int) func(*core.Tx) (any, error) {
					return func(ftx *core.Tx) (any, error) {
						iters := p.TaskIters
						if i == 0 {
							iters *= p.StragglerFactor
						}
						cfg.Worker.Do(iters)
						ftx.Write(counter, ftx.Read(counter).(int)+1)
						return i, nil
					}
				}
				if eng == WTF {
					return windowOutOfOrder(tx, p.Subtasks, p.Window, task, nil)
				}
				return windowInOrder(tx, p.Subtasks, p.Window, task, nil)
			})
			if err != nil {
				return 0, err
			}
			total += time.Since(start)
		}
		return total / time.Duration(p.Rounds), nil
	}
	wo, err := run(WTF)
	if err != nil {
		return nil, err
	}
	so, err := run(JTF)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Params: p, MakespanWO: wo, MakespanSO: so}, nil
}

// windowInOrder runs n tasks as futures keeping at most `window` in flight,
// activating a new one when the *oldest* settles (the JTF policy: futures
// serialize in submission order, so nothing is gained by looking further).
// onResult, if non-nil, receives each future's value in evaluation order.
func windowInOrder(tx *core.Tx, n, window int, task func(int) func(*core.Tx) (any, error), onResult func(any) error) error {
	var fifo []*core.Future
	next := 0
	for next < n && len(fifo) < window {
		fifo = append(fifo, tx.Submit(task(next)))
		next++
	}
	for len(fifo) > 0 {
		v, err := tx.Evaluate(fifo[0])
		if err != nil {
			return err
		}
		if onResult != nil {
			if err := onResult(v); err != nil {
				return err
			}
		}
		fifo = fifo[1:]
		if next < n {
			fifo = append(fifo, tx.Submit(task(next)))
			next++
		}
	}
	return nil
}

// windowOutOfOrder activates a new future as soon as *any* in-flight one
// completes (the WTF-TM policy, possible because WO futures may serialize
// upon evaluation in any order).
func windowOutOfOrder(tx *core.Tx, n, window int, task func(int) func(*core.Tx) (any, error), onResult func(any) error) error {
	completions := make(chan *core.Future, n)
	launch := func(i int) {
		f := tx.Submit(task(i))
		go func() {
			<-f.Done()
			completions <- f
		}()
	}
	next, inFlight := 0, 0
	for next < n && inFlight < window {
		launch(next)
		next++
		inFlight++
	}
	for inFlight > 0 {
		f := <-completions
		v, err := tx.Evaluate(f)
		if err != nil {
			return err
		}
		if onResult != nil {
			if err := onResult(v); err != nil {
				return err
			}
		}
		inFlight--
		if next < n {
			launch(next)
			next++
			inFlight++
		}
	}
	return nil
}

// Print renders the makespan comparison.
func (r *Fig3Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 3: straggler avoidance — per-transaction makespan")
	fmt.Fprintf(w, "(%d sub-tasks, window %d, straggler x%d)\n", r.Params.Subtasks, r.Params.Window, r.Params.StragglerFactor)
	t := newTable("ordering", "makespan", "vs WO")
	t.add("WO (out of order)", r.MakespanWO.String(), "1.00")
	t.add("SO (in order)", r.MakespanSO.String(), f(float64(r.MakespanSO)/float64(r.MakespanWO)))
	t.print(w)
}
