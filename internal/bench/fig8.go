package bench

import (
	"fmt"
	"io"

	"wtftm/internal/bank"
	"wtftm/internal/core"
	"wtftm/internal/mvstm"
	"wtftm/internal/workload"
)

// Fig8Params configures the Bank benchmark of §5.3: replaying a log of
// transfer/getTotalAmount operations. Chunks of the log run as top-level
// transactions; with futures, every operation of a chunk is delegated to a
// future. getTotalAmount operations are much longer than transfers, so they
// straggle them — which is what the out-of-order variant exploits.
type Fig8Params struct {
	// Threads is the x-axis: in-flight futures per top-level transaction.
	Threads []int
	// UpdatePcts are the workload mixes (percent transfer operations).
	UpdatePcts []int
	// Accounts is the bank size (100K in the paper).
	Accounts int
	// PairsPerTransfer is the number of account pairs per transfer (100).
	PairsPerTransfer int
	// ChunkFactor scales the chunk length: chunk = ChunkFactor * window.
	ChunkFactor int
	// Iter is the emulated computation per account access (1K).
	Iter int
	// TopLevels is the number of chunks replayed concurrently.
	TopLevels int
}

// DefaultFig8 returns a host-scaled version of the paper's setup.
func DefaultFig8(quick bool) Fig8Params {
	if quick {
		return Fig8Params{
			Threads:          []int{2, 4},
			UpdatePcts:       []int{10, 50, 90},
			Accounts:         96,
			PairsPerTransfer: 4,
			ChunkFactor:      3,
			Iter:             1000,
			TopLevels:        2,
		}
	}
	return Fig8Params{
		Threads:          []int{4, 8, 14, 28, 56},
		UpdatePcts:       []int{10, 50, 90},
		Accounts:         100000,
		PairsPerTransfer: 100,
		ChunkFactor:      4,
		Iter:             1000,
		TopLevels:        2,
	}
}

// Fig8Variant labels the three future schedulers of the figure.
type Fig8Variant string

const (
	// WTFInOrder evaluates futures in spawning order over the WO engine.
	WTFInOrder Fig8Variant = "WTF-InOrder"
	// WTFOutOfOrder evaluates futures as soon as they complete.
	WTFOutOfOrder Fig8Variant = "WTF-OutOfOrder"
	// JTFVariant evaluates in order over the SO engine.
	JTFVariant Fig8Variant = "JTF"
)

// Fig8Point is one measurement of Figure 8.
type Fig8Point struct {
	Variant           Fig8Variant
	UpdatePct         int
	Threads           int
	Speedup           float64
	InternalAbortRate float64
}

// Fig8Result is the regenerated Figure 8.
type Fig8Result struct {
	Params Fig8Params
	Points []Fig8Point
}

// RunFig8 measures all series of Figure 8 and verifies the benchmark's
// sanity check (the total balance is invariant).
func RunFig8(cfg Config, p Fig8Params) (*Fig8Result, error) {
	res := &Fig8Result{Params: p}
	for _, pct := range p.UpdatePcts {
		seq, err := fig8Sequential(cfg, p, pct)
		if err != nil {
			return nil, err
		}
		for _, n := range p.Threads {
			for _, v := range []Fig8Variant{WTFOutOfOrder, WTFInOrder, JTFVariant} {
				tput, intRate, err := fig8Futures(cfg, p, pct, n, v)
				if err != nil {
					return nil, err
				}
				res.Points = append(res.Points, Fig8Point{
					Variant: v, UpdatePct: pct, Threads: n,
					Speedup:           Speedup(tput, seq),
					InternalAbortRate: intRate,
				})
				cfg.progress("fig8 upd=%d%% threads=%d %s speedup=%.2f", pct, n, v, Speedup(tput, seq))
			}
		}
	}
	return res, nil
}

// fig8Sequential replays the log one operation at a time, one top-level
// transaction per chunk, no futures.
func fig8Sequential(cfg Config, p Fig8Params, pct int) (float64, error) {
	stm := mvstm.New()
	b := bank.New(stm, p.Accounts, 100)
	chunk := p.ChunkFactor * 4
	ops, el, err := measure(1, cfg.Duration, func(_ int, rng *workload.RNG) (int, error) {
		entries := bank.GenerateLog(rng, chunk, pct, p.PairsPerTransfer, p.Accounts)
		err := stm.Atomic(func(txn *mvstm.Txn) error {
			m := cfg.Worker.Meter()
			for _, e := range entries {
				checkTotal(b, b.Apply(txn, e, m.Func(p.Iter)))
			}
			m.Flush()
			return nil
		})
		return chunk, err
	})
	return Throughput(ops, el), err
}

// fig8Futures replays chunks with one future per log operation, keeping up
// to `window` futures in flight.
func fig8Futures(cfg Config, p Fig8Params, pct, window int, v Fig8Variant) (float64, float64, error) {
	eng := WTF
	if v == JTFVariant {
		eng = JTF
	}
	sys, stm := newSystem(eng)
	b := bank.New(stm, p.Accounts, 100)
	chunk := p.ChunkFactor * window
	ops, el, err := measure(p.TopLevels, cfg.Duration, func(_ int, rng *workload.RNG) (int, error) {
		entries := bank.GenerateLog(rng, chunk, pct, p.PairsPerTransfer, p.Accounts)
		err := sys.Atomic(func(tx *core.Tx) error {
			submit := func(e bank.LogEntry) *core.Future {
				return tx.Submit(func(ftx *core.Tx) (any, error) {
					m := cfg.Worker.Meter()
					total := b.Apply(ftx, e, m.Func(p.Iter))
					m.Flush()
					return total, nil
				})
			}
			if v == WTFOutOfOrder {
				return replayOutOfOrder(tx, b, entries, window, submit)
			}
			return replayInOrder(tx, b, entries, window, submit)
		})
		return chunk, err
	})
	if err != nil {
		return 0, 0, err
	}
	s := sys.Stats().Snapshot()
	internal := s.FutureReexecutions + s.TopInternal
	serialized := s.MergedAtSubmission + s.MergedAtEvaluation
	return Throughput(ops, el), Rate(internal, internal+serialized), nil
}

// replayInOrder keeps a FIFO window of futures: evaluate the oldest, spawn
// the next (the JTF activation policy and WTF-TM-InOrder).
func replayInOrder(tx *core.Tx, b *bank.Bank, entries []bank.LogEntry, window int, submit func(bank.LogEntry) *core.Future) error {
	var fifo []*core.Future
	next := 0
	for next < len(entries) && len(fifo) < window {
		fifo = append(fifo, submit(entries[next]))
		next++
	}
	for len(fifo) > 0 {
		v, err := tx.Evaluate(fifo[0])
		if err != nil {
			return err
		}
		checkTotal(b, v.(int))
		fifo = fifo[1:]
		if next < len(entries) {
			fifo = append(fifo, submit(entries[next]))
			next++
		}
	}
	return nil
}

// replayOutOfOrder evaluates whichever future completes first, so a slow
// getTotalAmount cannot straggle the transfers behind it (WTF-TM-OutOfOrder).
func replayOutOfOrder(tx *core.Tx, b *bank.Bank, entries []bank.LogEntry, window int, submit func(bank.LogEntry) *core.Future) error {
	completions := make(chan *core.Future, len(entries))
	launch := func(e bank.LogEntry) {
		f := submit(e)
		go func() {
			<-f.Done()
			completions <- f
		}()
	}
	next, inFlight := 0, 0
	for next < len(entries) && inFlight < window {
		launch(entries[next])
		next++
		inFlight++
	}
	for inFlight > 0 {
		done := <-completions
		v, err := tx.Evaluate(done)
		if err != nil {
			return err
		}
		checkTotal(b, v.(int))
		inFlight--
		if next < len(entries) {
			launch(entries[next])
			next++
			inFlight++
		}
	}
	return nil
}

// checkTotal panics when the benchmark's sanity check fails: every
// getTotalAmount must observe the invariant total.
func checkTotal(b *bank.Bank, got int) {
	if got != 0 && got != b.ExpectedTotal() {
		panic(fmt.Sprintf("bank: getTotalAmount = %d, want %d", got, b.ExpectedTotal()))
	}
}

// Print renders the throughput and abort tables of Figure 8.
func (r *Fig8Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: Bank benchmark — speedup vs sequential replay and internal abort rate")
	t := newTable("update%", "threads", "variant", "speedup", "internal-abort-rate")
	for _, pt := range r.Points {
		t.add(fmt.Sprint(pt.UpdatePct), fmt.Sprint(pt.Threads), string(pt.Variant), f(pt.Speedup), f(pt.InternalAbortRate))
	}
	t.print(w)
}
