// Benchmarks regenerating the paper's evaluation, one per figure (§5), plus
// engine micro-benchmarks. Each figure benchmark runs the corresponding
// experiment driver at test scale; cmd/wtfbench runs the same drivers at
// paper scale and prints the full tables.
package wtftm_test

import (
	"testing"

	"wtftm"
	"wtftm/internal/bench"
)

func quickCfg() bench.Config {
	cfg := bench.Quick()
	cfg.Duration = 60_000_000 // 60ms per point keeps the full suite fast
	return cfg
}

// BenchmarkFig3Stragglers regenerates Figure 3: WO's out-of-order
// evaluation avoids the straggler penalty SO pays.
func BenchmarkFig3Stragglers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig3(quickCfg(), bench.DefaultFig3(true))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MakespanSO)/float64(res.MakespanWO), "SO/WO-makespan")
	}
}

// BenchmarkFig6Left regenerates Figure 6 (left): read-only speedup grid
// over transaction length x iter.
func BenchmarkFig6Left(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6Left(quickCfg(), bench.DefaultFig6Left(true))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.SpeedupWTF, "WTF-speedup@max")
	}
}

// BenchmarkFig6Right regenerates Figure 6 (right): WTF-TM overhead vs JTF
// on a conflict-prone workload.
func BenchmarkFig6Right(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6Right(quickCfg(), bench.DefaultFig6Right(true))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Points)), "points")
	}
}

// BenchmarkFig7Speedup regenerates Figure 7: speedups and abort rates under
// three contention levels.
func BenchmarkFig7Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7(quickCfg(), bench.DefaultFig7(true))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Points)), "points")
	}
}

// BenchmarkFig8Bank regenerates Figure 8: the Bank log replay with
// in-order/out-of-order evaluation.
func BenchmarkFig8Bank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig8(quickCfg(), bench.DefaultFig8(true))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Points)), "points")
	}
}

// BenchmarkFig9Vacation regenerates Figure 9: the STAMP-Vacation adaptation
// with straggler injection.
func BenchmarkFig9Vacation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig9(quickCfg(), bench.DefaultFig9(true))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Points)), "points")
	}
}

// BenchmarkKMeans runs the extra clustering benchmark (assignment step
// fanned out over futures).
func BenchmarkKMeans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunKMeans(quickCfg(), bench.DefaultKMeans(true))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ItersPerSec[bench.WTF], "WTF-iters/s")
	}
}

// BenchmarkMVSTMReadWrite measures the raw MV-STM transaction cost.
func BenchmarkMVSTMReadWrite(b *testing.B) {
	stm := wtftm.NewSTM()
	box := wtftm.NewBox(stm, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := stm.Begin()
		box.Write(txn, box.Read(txn)+1)
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitEvaluate measures the orchestration cost of one future
// (submit + evaluate round trip) inside a transaction.
func BenchmarkSubmitEvaluate(b *testing.B) {
	stm := wtftm.NewSTM()
	sys := wtftm.NewSystem(stm, wtftm.Options{Ordering: wtftm.WO})
	box := wtftm.NewBox(stm, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.Atomic(func(tx *wtftm.Tx) error {
			f := tx.Submit(func(ftx *wtftm.Tx) (any, error) {
				box.Write(ftx, box.Read(ftx)+1)
				return nil, nil
			})
			_, err := tx.Evaluate(f)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphReadPath measures a sub-transaction read that walks the
// ancestor chain in G.
func BenchmarkGraphReadPath(b *testing.B) {
	stm := wtftm.NewSTM()
	sys := wtftm.NewSystem(stm, wtftm.Options{Ordering: wtftm.WO})
	box := wtftm.NewBox(stm, 0)
	err := sys.Atomic(func(tx *wtftm.Tx) error {
		// Build a deep chain of boundaries, then time reads from the tail.
		for i := 0; i < 32; i++ {
			f := tx.Submit(func(ftx *wtftm.Tx) (any, error) { return nil, nil })
			if _, err := tx.Evaluate(f); err != nil {
				return err
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = box.Read(tx)
		}
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
