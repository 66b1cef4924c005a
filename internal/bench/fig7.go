package bench

import (
	"fmt"
	"io"

	"wtftm/internal/core"
	"wtftm/internal/mvstm"
	"wtftm/internal/workload"
)

// Fig7Params configures the synthetic benchmark of §5.3: futures that
// conflict with their continuation. Each future performs uniform reads and
// then updates a random hot spot; each continuation reads a random hot spot
// and spawns the next future until the target concurrency is reached; the
// top-level transaction then evaluates all futures in spawning order and
// commits.
type Fig7Params struct {
	// Threads is the x-axis: concurrent futures for WTF/JTF, concurrent
	// top-level transactions for JVSTM.
	Threads []int
	// Contention maps a label to the hot-spot set size (100/1K/50K in the
	// paper: smaller set = higher contention).
	Contention []ContentionLevel
	// ReadsPerFuture is the uniform read count per future (10K).
	ReadsPerFuture int
	// Iter is the emulated computation between accesses (1K).
	Iter int
}

// ContentionLevel labels one hot-spot size.
type ContentionLevel struct {
	Label string
	Size  int
}

// DefaultFig7 returns a host-scaled version of the paper's setup.
func DefaultFig7(quick bool) Fig7Params {
	if quick {
		return Fig7Params{
			Threads:        []int{2, 4, 8},
			Contention:     []ContentionLevel{{"high", 4}, {"med", 32}, {"low", 512}},
			ReadsPerFuture: 8,
			Iter:           1000,
		}
	}
	return Fig7Params{
		Threads:        []int{2, 4, 8, 14, 28, 56},
		Contention:     []ContentionLevel{{"high", 100}, {"med", 1000}, {"low", 50000}},
		ReadsPerFuture: 10000,
		Iter:           1000,
	}
}

// Fig7Point is one measurement of Figure 7a/7b.
type Fig7Point struct {
	Engine     Engine
	Contention string
	Threads    int
	// Speedup is throughput normalized to the sequential (1 top-level, no
	// futures) execution of the same contention level.
	Speedup float64
	// TopAbortRate is top-level aborts / top-level attempts (Fig 7b left).
	TopAbortRate float64
	// InternalAbortRate is sub-transaction aborts / sub-transaction
	// serializations (Fig 7b right).
	InternalAbortRate float64
}

// Fig7Result is the regenerated Figure 7.
type Fig7Result struct {
	Params Fig7Params
	Points []Fig7Point
}

// RunFig7 measures all series of Figure 7.
func RunFig7(cfg Config, p Fig7Params) (*Fig7Result, error) {
	res := &Fig7Result{Params: p}
	for _, cont := range p.Contention {
		seq, _, err := fig7JVSTM(cfg, p, cont.Size, 1)
		if err != nil {
			return nil, err
		}
		for _, n := range p.Threads {
			tput, topRate, err := fig7JVSTM(cfg, p, cont.Size, n)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Fig7Point{
				Engine: JVSTM, Contention: cont.Label, Threads: n,
				Speedup: Speedup(tput, seq), TopAbortRate: topRate,
			})
			for _, eng := range []Engine{WTF, JTF} {
				tput, topRate, intRate, err := fig7Futures(cfg, p, cont.Size, n, eng)
				if err != nil {
					return nil, err
				}
				res.Points = append(res.Points, Fig7Point{
					Engine: eng, Contention: cont.Label, Threads: n,
					Speedup:      Speedup(tput, seq),
					TopAbortRate: topRate, InternalAbortRate: intRate,
				})
			}
			cfg.progress("fig7 %s threads=%d done", cont.Label, n)
		}
	}
	return res, nil
}

// fig7Work is one future's workload: uniform array reads followed by one
// *blind* write to a random hot spot. The write being blind is what lets a
// weakly ordered future that missed its submission point serialize at
// evaluation without any abort — its read set never contains a hot spot
// (§5.3: "with WO the continuation's abort can be avoided by serializing
// its future upon evaluation").
func fig7Work(cfg Config, p Fig7Params, tx mvstm.ReadWriter, arr *workload.Array, hot *workload.HotSpots, rng *workload.RNG) {
	m := cfg.Worker.Meter()
	for i := 0; i < p.ReadsPerFuture; i++ {
		m.Do(p.Iter)
		_ = tx.Read(arr.Box(rng.Intn(arr.Len())))
	}
	m.Do(p.Iter)
	tx.Write(hot.Box(rng.Intn(hot.Len())), int(rng.Uint64()%1000))
	m.Flush()
}

func fig7JVSTM(cfg Config, p Fig7Params, hotSize, threads int) (tput, topRate float64, err error) {
	stm := mvstm.New()
	arr := workload.NewArray(stm, cfg.ArraySize)
	hot := workload.NewHotSpots(stm, hotSize)
	ops, el, err := measure(threads, cfg.Duration, func(_ int, rng *workload.RNG) (int, error) {
		seed := rng.Uint64()
		err := stm.Atomic(func(txn *mvstm.Txn) error {
			r := workload.NewRNG(seed)
			fig7Work(cfg, p, txn, arr, hot, r)
			_ = txn.Read(hot.Box(r.Intn(hot.Len()))) // the continuation's read
			return nil
		})
		return 1, err
	})
	if err != nil {
		return 0, 0, err
	}
	s := stm.Stats().Snapshot()
	return Throughput(ops, el), Rate(s.Conflicts, s.Conflicts+s.Commits+s.ReadOnlyCommits), nil
}

func fig7Futures(cfg Config, p Fig7Params, hotSize, futures int, eng Engine) (tput, topRate, intRate float64, err error) {
	sys, stm := newSystem(eng)
	arr := workload.NewArray(stm, cfg.ArraySize)
	hot := workload.NewHotSpots(stm, hotSize)
	ops, el, err := measure(1, cfg.Duration, func(_ int, rng *workload.RNG) (int, error) {
		seed := rng.Uint64()
		err := sys.Atomic(func(tx *core.Tx) error {
			r := workload.NewRNG(seed)
			futs := make([]*core.Future, 0, futures)
			for len(futs) < futures {
				fi := len(futs)
				futs = append(futs, tx.Submit(func(ftx *core.Tx) (any, error) {
					fig7Work(cfg, p, ftx, arr, hot, workload.NewRNG(seed+uint64(fi)+1))
					return nil, nil
				}))
				// The continuation's conflict-prone hot-spot read.
				_ = tx.Read(hot.Box(r.Intn(hot.Len())))
			}
			for _, fut := range futs {
				if _, err := tx.Evaluate(fut); err != nil {
					return err
				}
			}
			return nil
		})
		return futures, err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	s := sys.Stats().Snapshot()
	attempts := s.TopCommits + s.TopConflict + s.TopInternal
	internal := s.FutureReexecutions + s.TopInternal
	serialized := s.MergedAtSubmission + s.MergedAtEvaluation
	return Throughput(ops, el),
		Rate(s.TopConflict+s.TopInternal, attempts),
		Rate(internal, internal+serialized),
		nil
}

// Print renders Figure 7a (speedups) and 7b (abort rates).
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 7a: speedup vs sequential (futures for WTF/JTF, top-levels for JVSTM)")
	t := newTable("contention", "threads", "engine", "speedup")
	for _, pt := range r.Points {
		t.add(pt.Contention, fmt.Sprint(pt.Threads), string(pt.Engine), f(pt.Speedup))
	}
	t.print(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 7b: abort rates (top-level for JVSTM, internal for WTF/JTF)")
	t = newTable("contention", "threads", "engine", "top-abort-rate", "internal-abort-rate")
	for _, pt := range r.Points {
		t.add(pt.Contention, fmt.Sprint(pt.Threads), string(pt.Engine), f(pt.TopAbortRate), f(pt.InternalAbortRate))
	}
	t.print(w)
}
