package bench

import (
	"fmt"
	"io"
	"time"

	"wtftm/internal/core"
	"wtftm/internal/mvstm"
	"wtftm/internal/workload"
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

// AblationResult quantifies three design choices DESIGN.md calls out: the
// cost of maintaining G (WTF over raw goroutine futures on an uncontended
// workload), the serialization-point mix under continuation conflicts, and
// the commit-blocking cost of LAC versus GAC for escaping futures.
type AblationResult struct {
	// GraphOverheadBoundPct is (tNT - tWTF)/tNT on a pure-orchestration
	// workload (iter=0): the upper bound of the bookkeeping cost.
	GraphOverheadBoundPct float64
	// GraphOverheadTypicalPct is the same metric at the paper's iter=1K,
	// where emulated work dominates and the overhead mostly vanishes.
	GraphOverheadTypicalPct float64
	// MergedAtSubmissionPct / MergedAtEvaluationPct / ReexecutedPct
	// decompose the fate of futures under a conflicting workload.
	MergedAtSubmissionPct, MergedAtEvaluationPct, ReexecutedPct float64
	// LACCommitLatency / GACCommitLatency are the spawner's commit
	// latencies when an escaping future is still running.
	LACCommitLatency, GACCommitLatency time.Duration
}

// RunAblation measures the three ablations.
func RunAblation(cfg Config) (*AblationResult, error) {
	res := &AblationResult{}

	// 1. Graph maintenance overhead on an uncontended read-only workload,
	// at the orchestration-bound extreme and at the paper's typical iter.
	p := Fig6LeftParams{TxnLens: []int{64}, Iters: nil, TopLevels: 2, Futures: 8}
	for _, pt := range []struct {
		iter int
		dst  *float64
	}{{0, &res.GraphOverheadBoundPct}, {1000, &res.GraphOverheadTypicalPct}} {
		nt, err := fig6LeftNT(cfg, p, 64, pt.iter)
		if err != nil {
			return nil, err
		}
		wtf, err := fig6LeftWTF(cfg, p, 64, pt.iter)
		if err != nil {
			return nil, err
		}
		if nt > 0 {
			*pt.dst = (nt - wtf) / nt * 100
		}
	}

	// 2. Serialization-point mix under continuation conflicts.
	sys, stm := newSystem(WTF)
	hot := workload.NewHotSpots(stm, 4)
	_, _, err := measure(1, cfg.Duration/2, func(_ int, rng *workload.RNG) (int, error) {
		err := sys.Atomic(func(tx *core.Tx) error {
			var futs []*core.Future
			for i := 0; i < 4; i++ {
				b := hot.Box(rng.Intn(hot.Len()))
				futs = append(futs, tx.Submit(func(ftx *core.Tx) (any, error) {
					ftx.Write(b, ftx.Read(b).(int)+1)
					return nil, nil
				}))
				_ = tx.Read(hot.Box(rng.Intn(hot.Len())))
			}
			for _, f := range futs {
				if _, err := tx.Evaluate(f); err != nil {
					return err
				}
			}
			return nil
		})
		return 1, err
	})
	if err != nil {
		return nil, err
	}
	s := sys.Stats().Snapshot()
	den := float64(s.MergedAtSubmission + s.MergedAtEvaluation + s.FutureReexecutions)
	if den > 0 {
		res.MergedAtSubmissionPct = float64(s.MergedAtSubmission) / den * 100
		res.MergedAtEvaluationPct = float64(s.MergedAtEvaluation) / den * 100
		res.ReexecutedPct = float64(s.FutureReexecutions) / den * 100
	}

	// 3. LAC vs GAC: spawner commit latency with a slow escaping future.
	delay := 5 * time.Millisecond
	lat := func(at core.Atomicity) (time.Duration, error) {
		stmi := mvstm.New()
		sysi := core.New(stmi, core.Options{Ordering: core.WO, Atomicity: at})
		box := stmi.NewBox(0)
		start := time.Now()
		err := sysi.Atomic(func(tx *core.Tx) error {
			tx.Submit(func(ftx *core.Tx) (any, error) {
				time.Sleep(delay)
				ftx.Write(box, 1)
				return nil, nil
			})
			return nil // escape: never evaluated here
		})
		return time.Since(start), err
	}
	var errL, errG error
	res.LACCommitLatency, errL = lat(core.LAC)
	res.GACCommitLatency, errG = lat(core.GAC)
	if errL != nil {
		return nil, errL
	}
	if errG != nil {
		return nil, errG
	}
	return res, nil
}

// Print renders the ablation table.
func (r *AblationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablations")
	t := newTable("metric", "value")
	t.add("graph overhead vs NT futures (orchestration-bound)", fmt.Sprintf("%.1f%%", r.GraphOverheadBoundPct))
	t.add("graph overhead vs NT futures (compute-bound, iter=1k)", fmt.Sprintf("%.1f%%", r.GraphOverheadTypicalPct))
	t.add("futures merged at submission", fmt.Sprintf("%.1f%%", r.MergedAtSubmissionPct))
	t.add("futures merged at evaluation", fmt.Sprintf("%.1f%%", r.MergedAtEvaluationPct))
	t.add("futures re-executed", fmt.Sprintf("%.1f%%", r.ReexecutedPct))
	t.add("LAC spawner-commit latency (escaping future)", r.LACCommitLatency.String())
	t.add("GAC spawner-commit latency (escaping future)", r.GACCommitLatency.String())
	t.print(w)
}
