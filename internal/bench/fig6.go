package bench

import (
	"fmt"
	"io"
	"sync"

	"wtftm/internal/core"
	"wtftm/internal/mvstm"
	"wtftm/internal/workload"
)

// Fig6LeftParams sweeps the read-only workload of §5.1: when is future-based
// parallelization worth it?
type Fig6LeftParams struct {
	// TxnLens is the number of read accesses per transaction (x-axis;
	// 10..100K in the paper).
	TxnLens []int
	// Iters is the CPU-bound work between two accesses (series; 0..100K in
	// the paper).
	Iters []int
	// TopLevels is the number of concurrent top-level transactions (2).
	TopLevels int
	// Futures is the intra-transaction parallelism (16).
	Futures int
}

// DefaultFig6Left returns a host-scaled version of the paper's grid.
func DefaultFig6Left(quick bool) Fig6LeftParams {
	if quick {
		return Fig6LeftParams{TxnLens: []int{16, 64, 256}, Iters: []int{0, 100, 1000}, TopLevels: 2, Futures: 8}
	}
	return Fig6LeftParams{TxnLens: []int{10, 100, 1000, 10000}, Iters: []int{0, 100, 1000, 10000}, TopLevels: 2, Futures: 16}
}

// Fig6LeftPoint is one cell of the grid: speedups of non-transactional
// futures and WTF-TM futures over the unparallelized transactional baseline.
type Fig6LeftPoint struct {
	TxnLen, Iter          int
	SpeedupNT, SpeedupWTF float64
}

// Fig6LeftResult is the regenerated left plot of Figure 6.
type Fig6LeftResult struct {
	Params Fig6LeftParams
	Points []Fig6LeftPoint
}

// RunFig6Left measures the read-only grid.
func RunFig6Left(cfg Config, p Fig6LeftParams) (*Fig6LeftResult, error) {
	res := &Fig6LeftResult{Params: p}
	for _, l := range p.TxnLens {
		for _, it := range p.Iters {
			base, err := fig6LeftBaseline(cfg, p, l, it)
			if err != nil {
				return nil, err
			}
			nt, err := fig6LeftNT(cfg, p, l, it)
			if err != nil {
				return nil, err
			}
			wtf, err := fig6LeftWTF(cfg, p, l, it)
			if err != nil {
				return nil, err
			}
			pt := Fig6LeftPoint{
				TxnLen: l, Iter: it,
				SpeedupNT:  Speedup(nt, base),
				SpeedupWTF: Speedup(wtf, base),
			}
			res.Points = append(res.Points, pt)
			cfg.progress("fig6left len=%d iter=%d NT=%.2f WTF=%.2f", l, it, pt.SpeedupNT, pt.SpeedupWTF)
		}
	}
	return res, nil
}

// fig6LeftBaseline: TopLevels unparallelized transactions.
func fig6LeftBaseline(cfg Config, p Fig6LeftParams, txnLen, iter int) (float64, error) {
	sys, stm := newSystem(WTF)
	arr := workload.NewArray(stm, cfg.ArraySize)
	ops, el, err := measure(p.TopLevels, cfg.Duration, func(_ int, rng *workload.RNG) (int, error) {
		seed := rng.Uint64()
		err := sys.Atomic(func(tx *core.Tx) error {
			r := workload.NewRNG(seed)
			m := cfg.Worker.Meter()
			for i := 0; i < txnLen; i++ {
				m.Do(iter)
				_ = tx.Read(arr.Box(r.Intn(arr.Len())))
			}
			m.Flush()
			return nil
		})
		return 1, err
	})
	return Throughput(ops, el), err
}

// fig6LeftNT: plain goroutine futures over raw memory — the cost floor.
func fig6LeftNT(cfg Config, p Fig6LeftParams, txnLen, iter int) (float64, error) {
	raw := make([]int, cfg.ArraySize)
	for i := range raw {
		raw[i] = i
	}
	var sink int64
	ops, el, err := measure(p.TopLevels, cfg.Duration, func(_ int, rng *workload.RNG) (int, error) {
		per := perFuture(txnLen, p.Futures)
		var wg sync.WaitGroup
		seed := rng.Uint64()
		for fi := 0; fi < p.Futures; fi++ {
			wg.Add(1)
			go func(fi int) {
				defer wg.Done()
				r := workload.NewRNG(seed + uint64(fi))
				m := cfg.Worker.Meter()
				local := 0
				for i := 0; i < per; i++ {
					m.Do(iter)
					local += raw[r.Intn(len(raw))]
				}
				m.Flush()
				if local == -1 {
					sink++
				}
			}(fi)
		}
		wg.Wait()
		return 1, nil
	})
	_ = sink
	return Throughput(ops, el), err
}

// fig6LeftWTF: the same reads split across transactional futures.
func fig6LeftWTF(cfg Config, p Fig6LeftParams, txnLen, iter int) (float64, error) {
	sys, stm := newSystem(WTF)
	arr := workload.NewArray(stm, cfg.ArraySize)
	ops, el, err := measure(p.TopLevels, cfg.Duration, func(_ int, rng *workload.RNG) (int, error) {
		seed := rng.Uint64()
		err := sys.Atomic(func(tx *core.Tx) error {
			per := perFuture(txnLen, p.Futures)
			futs := make([]*core.Future, p.Futures)
			for fi := 0; fi < p.Futures; fi++ {
				fi := fi
				futs[fi] = tx.Submit(func(ftx *core.Tx) (any, error) {
					r := workload.NewRNG(seed + uint64(fi))
					m := cfg.Worker.Meter()
					for i := 0; i < per; i++ {
						m.Do(iter)
						_ = ftx.Read(arr.Box(r.Intn(arr.Len())))
					}
					m.Flush()
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
		return 1, err
	})
	return Throughput(ops, el), err
}

func perFuture(total, futures int) int {
	per := total / futures
	if per < 1 {
		per = 1
	}
	return per
}

// Print renders the grid in the layout of the paper's figure.
func (r *Fig6LeftResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 6 (left): read-only workload — speedup vs unparallelized transactions")
	fmt.Fprintf(w, "(%d top-level x %d futures)\n", r.Params.TopLevels, r.Params.Futures)
	t := newTable("txn-len", "iter", "NT-futures", "WTF-TM")
	for _, pt := range r.Points {
		t.add(fmt.Sprint(pt.TxnLen), fmt.Sprint(pt.Iter), f(pt.SpeedupNT), f(pt.SpeedupWTF))
	}
	t.print(w)
}

// Fig6RightParams sweeps the conflict-prone hot-spot workload of §5.2: the
// overhead of WTF-TM w.r.t. JTF where WO semantics cannot help.
type Fig6RightParams struct {
	// TotalThreads is the fixed thread budget (48 in the paper).
	TotalThreads int
	// Splits are the (top-level x futures) allocations of the budget.
	Splits [][2]int
	// ReadLens is the number of uniform reads per future (x-axis).
	ReadLens []int
	// Iter is the CPU-bound work between accesses (1K in the paper).
	Iter int
	// HotSpots is the size of the contended update set (20).
	HotSpots int
	// WritesPerFuture is the number of hot-spot updates per future (10).
	WritesPerFuture int
}

// DefaultFig6Right returns a host-scaled version of the paper's setup.
func DefaultFig6Right(quick bool) Fig6RightParams {
	if quick {
		return Fig6RightParams{
			TotalThreads:    12,
			Splits:          [][2]int{{6, 2}, {3, 4}, {2, 6}},
			ReadLens:        []int{2, 8, 32},
			Iter:            1000,
			HotSpots:        20,
			WritesPerFuture: 4,
		}
	}
	return Fig6RightParams{
		TotalThreads:    48,
		Splits:          [][2]int{{24, 2}, {12, 4}, {6, 8}, {4, 12}, {2, 24}},
		ReadLens:        []int{10, 100, 1000, 10000},
		Iter:            1000,
		HotSpots:        20,
		WritesPerFuture: 10,
	}
}

// Fig6RightPoint is one measurement: throughput of a split normalized to
// the all-top-level JVSTM allocation.
type Fig6RightPoint struct {
	Tops, Futures int
	ReadLen       int
	Engine        Engine
	Speedup       float64
}

// Fig6RightResult is the regenerated right plot of Figure 6.
type Fig6RightResult struct {
	Params Fig6RightParams
	Points []Fig6RightPoint
}

// RunFig6Right measures the contended grid.
func RunFig6Right(cfg Config, p Fig6RightParams) (*Fig6RightResult, error) {
	res := &Fig6RightResult{Params: p}
	for _, rl := range p.ReadLens {
		base, err := fig6RightJVSTM(cfg, p, rl)
		if err != nil {
			return nil, err
		}
		for _, split := range p.Splits {
			for _, eng := range []Engine{WTF, JTF} {
				tput, err := fig6RightFutures(cfg, p, rl, split[0], split[1], eng)
				if err != nil {
					return nil, err
				}
				pt := Fig6RightPoint{
					Tops: split[0], Futures: split[1], ReadLen: rl,
					Engine: eng, Speedup: Speedup(tput, base),
				}
				res.Points = append(res.Points, pt)
				cfg.progress("fig6right len=%d %d*%d %s=%.2f", rl, split[0], split[1], eng, pt.Speedup)
			}
		}
	}
	return res, nil
}

// fig6RightWork is the per-future workload: uniform reads then hot-spot
// read-modify-write updates, with emulated computation in between. The
// updates of one transaction's futures are partitioned (future fi owns a
// distinct slice of the hot-spot set), so the contention this figure studies
// is *between* top-level transactions — the workload where WO semantics
// cannot help and the figure isolates WTF-TM's bookkeeping overhead vs JTF.
func fig6RightWork(cfg Config, p Fig6RightParams, readLen, offset, fi, futures int, tx mvstm.ReadWriter, arr *workload.Array, hot *workload.HotSpots, rng *workload.RNG) {
	m := cfg.Worker.Meter()
	for i := 0; i < readLen; i++ {
		m.Do(p.Iter)
		_ = tx.Read(arr.Box(rng.Intn(arr.Len())))
	}
	for i := 0; i < p.WritesPerFuture; i++ {
		m.Do(p.Iter)
		slot := (offset + fi + i*futures) % hot.Len()
		b := hot.Box(slot)
		tx.Write(b, tx.Read(b).(int)+1)
	}
	m.Flush()
}

func fig6RightJVSTM(cfg Config, p Fig6RightParams, readLen int) (float64, error) {
	stm := mvstm.New()
	arr := workload.NewArray(stm, cfg.ArraySize)
	hot := workload.NewHotSpots(stm, p.HotSpots)
	ops, el, err := measure(p.TotalThreads, cfg.Duration, func(_ int, rng *workload.RNG) (int, error) {
		seed := rng.Uint64()
		err := stm.Atomic(func(txn *mvstm.Txn) error {
			fig6RightWork(cfg, p, readLen, int(seed%uint64(p.HotSpots)), 0, 1, txn, arr, hot, workload.NewRNG(seed))
			return nil
		})
		return 1, err
	})
	return Throughput(ops, el), err
}

func fig6RightFutures(cfg Config, p Fig6RightParams, readLen, tops, futures int, eng Engine) (float64, error) {
	sys, stm := newSystem(eng)
	arr := workload.NewArray(stm, cfg.ArraySize)
	hot := workload.NewHotSpots(stm, p.HotSpots)
	ops, el, err := measure(tops, cfg.Duration, func(_ int, rng *workload.RNG) (int, error) {
		seed := rng.Uint64()
		err := sys.Atomic(func(tx *core.Tx) error {
			futs := make([]*core.Future, futures)
			for fi := 0; fi < futures; fi++ {
				fi := fi
				futs[fi] = tx.Submit(func(ftx *core.Tx) (any, error) {
					fig6RightWork(cfg, p, readLen, int(seed%uint64(p.HotSpots)), fi, futures, ftx, arr, hot, workload.NewRNG(seed+uint64(fi)))
					return nil, nil
				})
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
	return Throughput(ops, el), err
}

// Print renders the normalized-throughput table of Figure 6 (right).
func (r *Fig6RightResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 6 (right): contended workload — speedup vs all-top-level JVSTM")
	fmt.Fprintf(w, "(total threads=%d, hot spots=%d, iter=%d)\n", r.Params.TotalThreads, r.Params.HotSpots, r.Params.Iter)
	t := newTable("split(tops*futs)", "read-len", "engine", "speedup")
	for _, pt := range r.Points {
		t.add(fmt.Sprintf("%d*%d", pt.Tops, pt.Futures), fmt.Sprint(pt.ReadLen), string(pt.Engine), f(pt.Speedup))
	}
	t.print(w)
}
