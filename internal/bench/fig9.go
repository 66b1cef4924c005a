package bench

import (
	"fmt"
	"io"
	"time"

	"wtftm/internal/core"
	"wtftm/internal/mvstm"
	"wtftm/internal/vacation"
	"wtftm/internal/workload"
)

// Fig9Params configures the Vacation benchmark of §5.3 (STAMP-derived): the
// MakeReservation transaction's search operations are divided among a fixed
// number of futures, and a fraction of the futures emulates hitting a remote
// database by sleeping right after it begins — the stragglers that
// out-of-order evaluation mitigates.
type Fig9Params struct {
	// Clients are the concurrent top-level transaction counts for WTF/JTF
	// (1, 2, 7 in the paper).
	Clients []int
	// Futures are the per-transaction future counts; total parallelism
	// (the x-axis) is clients x futures.
	Futures []int
	// JVSTMClients are the top-level counts for the futures-less baseline.
	JVSTMClients []int
	// Relations is the table size (-r).
	Relations int
	// QueryPct is the fraction of relations queried (-q 1 → high conflict).
	QueryPct int
	// QueriesPerTxn is the number of search operations per reservation.
	QueriesPerTxn int
	// Iter is the emulated computation per access (1K).
	Iter int
	// StragglerPct is the probability (percent) that a future sleeps.
	StragglerPct int
	// StragglerDelay is the injected remote-database latency (100ms).
	StragglerDelay time.Duration
	// Customers is the number of customer records.
	Customers int
}

// DefaultFig9 returns a host-scaled version of the paper's setup.
func DefaultFig9(quick bool) Fig9Params {
	if quick {
		return Fig9Params{
			Clients:        []int{1, 2},
			Futures:        []int{2, 4},
			JVSTMClients:   []int{1, 2, 4, 8},
			Relations:      128,
			QueryPct:       2,
			QueriesPerTxn:  24,
			Iter:           1000,
			StragglerPct:   10,
			StragglerDelay: 10 * time.Millisecond,
			Customers:      64,
		}
	}
	return Fig9Params{
		Clients:        []int{1, 2, 7},
		Futures:        []int{2, 4, 8},
		JVSTMClients:   []int{1, 2, 7, 14, 28, 56},
		Relations:      10000,
		QueryPct:       1,
		QueriesPerTxn:  360,
		Iter:           1000,
		StragglerPct:   10,
		StragglerDelay: 100 * time.Millisecond,
		Customers:      1024,
	}
}

// Fig9Point is one measurement of Figure 9.
type Fig9Point struct {
	Engine       Engine
	Clients      int
	Futures      int // 1 for JVSTM
	Parallelism  int // clients x futures (the x-axis)
	Speedup      float64
	TopAbortRate float64
}

// Fig9Result is the regenerated Figure 9.
type Fig9Result struct {
	Params Fig9Params
	Points []Fig9Point
}

// RunFig9 measures all series of Figure 9 and verifies the database
// invariants afterwards.
func RunFig9(cfg Config, p Fig9Params) (*Fig9Result, error) {
	res := &Fig9Result{Params: p}
	seq, _, err := fig9JVSTM(cfg, p, 1)
	if err != nil {
		return nil, err
	}
	for _, n := range p.JVSTMClients {
		tput, rate, err := fig9JVSTM(cfg, p, n)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig9Point{
			Engine: JVSTM, Clients: n, Futures: 1, Parallelism: n,
			Speedup: Speedup(tput, seq), TopAbortRate: rate,
		})
	}
	for _, c := range p.Clients {
		for _, fu := range p.Futures {
			for _, eng := range []Engine{WTF, JTF} {
				tput, rate, err := fig9Futures(cfg, p, c, fu, eng)
				if err != nil {
					return nil, err
				}
				res.Points = append(res.Points, Fig9Point{
					Engine: eng, Clients: c, Futures: fu, Parallelism: c * fu,
					Speedup: Speedup(tput, seq), TopAbortRate: rate,
				})
				cfg.progress("fig9 %s clients=%d futures=%d speedup=%.2f", eng, c, fu, Speedup(tput, seq))
			}
		}
	}
	return res, nil
}

func (p Fig9Params) queryRange() int {
	qr := p.Relations * p.QueryPct / 100
	if qr < 2 {
		qr = 2
	}
	return qr
}

// fig9JVSTM runs MakeReservation without intra-transaction parallelism.
func fig9JVSTM(cfg Config, p Fig9Params, clients int) (float64, float64, error) {
	stm := mvstm.New()
	m := vacation.NewManager(stm, p.Relations, p.Customers, 7)
	ops, el, err := measure(clients, cfg.Duration, func(w int, rng *workload.RNG) (int, error) {
		seed := rng.Uint64()
		cust := rng.Intn(p.Customers)
		err := stm.Atomic(func(txn *mvstm.Txn) error {
			r := workload.NewRNG(seed)
			if r.Intn(100) < p.StragglerPct {
				time.Sleep(p.StragglerDelay)
			}
			wm := cfg.Worker.Meter()
			best := m.SearchBest(txn, r, p.QueriesPerTxn, p.queryRange(), wm.Func(p.Iter))
			wm.Flush()
			for k := range best {
				m.Reserve(txn, best[k], cust)
			}
			return nil
		})
		return 1, err
	})
	if err != nil {
		return 0, 0, err
	}
	if err := m.CheckInvariants(stm); err != nil {
		return 0, 0, err
	}
	s := stm.Stats().Snapshot()
	return Throughput(ops, el), Rate(s.Conflicts, s.Conflicts+s.Commits+s.ReadOnlyCommits), nil
}

// fig9Futures runs MakeReservation with the search operations divided among
// futures. WTF evaluates futures as they complete; JTF's in-order
// serialization makes the straggler stall its siblings regardless of the
// evaluation order used here.
func fig9Futures(cfg Config, p Fig9Params, clients, futures int, eng Engine) (float64, float64, error) {
	sys, stm := newSystem(eng)
	m := vacation.NewManager(stm, p.Relations, p.Customers, 7)
	// The searches are divided into 2x as many tasks as the window so the
	// activation policy matters: JTF activates a new future only when the
	// oldest completes; WTF-TM as soon as any completes (§5.3).
	tasks := futures * 2
	perFut := perFuture(p.QueriesPerTxn, tasks)
	ops, el, err := measure(clients, cfg.Duration, func(w int, rng *workload.RNG) (int, error) {
		seed := rng.Uint64()
		cust := rng.Intn(p.Customers)
		err := sys.Atomic(func(tx *core.Tx) error {
			task := func(i int) func(*core.Tx) (any, error) {
				return func(ftx *core.Tx) (any, error) {
					r := workload.NewRNG(seed + uint64(i))
					if r.Intn(100) < p.StragglerPct {
						// Emulated remote-database access right after the
						// future begins.
						time.Sleep(p.StragglerDelay)
					}
					wm := cfg.Worker.Meter()
					best := m.SearchBest(ftx, r, perFut, p.queryRange(), wm.Func(p.Iter))
					wm.Flush()
					return best, nil
				}
			}
			var best vacation.BestSet
			merge := func(v any) error {
				best = vacation.MergeBest(best, v.(vacation.BestSet))
				return nil
			}
			var err error
			if eng == WTF {
				err = windowOutOfOrder(tx, tasks, futures, task, merge)
			} else {
				err = windowInOrder(tx, tasks, futures, task, merge)
			}
			if err != nil {
				return err
			}
			for k := range best {
				m.Reserve(tx, best[k], cust)
			}
			return nil
		})
		return 1, err
	})
	if err != nil {
		return 0, 0, err
	}
	if err := m.CheckInvariants(stm); err != nil {
		return 0, 0, err
	}
	s := sys.Stats().Snapshot()
	attempts := s.TopCommits + s.TopConflict + s.TopInternal
	return Throughput(ops, el), Rate(s.TopConflict+s.TopInternal, attempts), nil
}

// Print renders the speedup and abort-rate tables of Figure 9.
func (r *Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: Vacation benchmark — speedup vs sequential and top-level abort rate")
	fmt.Fprintf(w, "(stragglers: %d%% of futures delayed %v)\n", r.Params.StragglerPct, r.Params.StragglerDelay)
	t := newTable("engine", "clients", "futures", "parallelism", "speedup", "top-abort-rate")
	for _, pt := range r.Points {
		t.add(string(pt.Engine), fmt.Sprint(pt.Clients), fmt.Sprint(pt.Futures),
			fmt.Sprint(pt.Parallelism), f(pt.Speedup), f(pt.TopAbortRate))
	}
	t.print(w)
}
