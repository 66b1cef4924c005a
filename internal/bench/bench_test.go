package bench

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wtftm/internal/workload"
)

// tiny returns a configuration that completes in tens of milliseconds.
func tiny() Config {
	cfg := Quick()
	cfg.Duration = 25 * time.Millisecond
	cfg.ArraySize = 512
	cfg.Worker.Unit = 100 * time.Nanosecond
	return cfg
}

func TestMeasureCountsOps(t *testing.T) {
	// The body must not pace itself with sleeps: iterations are then
	// nanoseconds each and every worker contributes ops regardless of how
	// the runtime schedules the measurement window.
	var ran [3]atomic.Int64
	ops, el, err := measure(3, 10*time.Millisecond, func(w int, _ *workload.RNG) (int, error) {
		ran[w].Add(1)
		return 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var iters int64
	for i := range ran {
		iters += ran[i].Load()
	}
	if ops != 2*iters {
		t.Fatalf("ops = %d, want 2 per iteration over %d iterations", ops, iters)
	}
	if ops < 6 {
		t.Fatalf("ops = %d, want >= 6", ops)
	}
	if el < 10*time.Millisecond {
		t.Fatalf("elapsed = %v, want >= the measurement window", el)
	}
}

func TestMeasurePropagatesError(t *testing.T) {
	_, _, err := measure(2, 10*time.Millisecond, func(w int, _ *workload.RNG) (int, error) {
		if w == 1 {
			return 0, errBench
		}
		return 1, nil
	})
	if err != errBench {
		t.Fatalf("err = %v", err)
	}
}

var errBench = timeoutError{}

type timeoutError struct{}

func (timeoutError) Error() string { return "bench test error" }

func TestTablePrint(t *testing.T) {
	tb := newTable("a", "long-header")
	tb.add("1", "2")
	tb.add("333", "4")
	var buf bytes.Buffer
	tb.print(&buf)
	out := buf.String()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "333") {
		t.Fatalf("table output:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("expected 4 lines:\n%s", out)
	}
}

func TestRunFig3(t *testing.T) {
	p := DefaultFig3(true)
	p.Rounds = 2
	p.TaskIters = 16
	res, err := RunFig3(tiny(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanWO <= 0 || res.MakespanSO <= 0 {
		t.Fatalf("makespans = %v / %v", res.MakespanWO, res.MakespanSO)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "straggler") {
		t.Fatalf("print output:\n%s", buf.String())
	}
}

func TestRunFig6Left(t *testing.T) {
	p := Fig6LeftParams{TxnLens: []int{8}, Iters: []int{0, 4}, TopLevels: 2, Futures: 4}
	res, err := RunFig6Left(tiny(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.SpeedupWTF <= 0 || pt.SpeedupNT <= 0 {
			t.Fatalf("non-positive speedup: %+v", pt)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "WTF-TM") {
		t.Fatal("missing header")
	}
}

func TestRunFig6Right(t *testing.T) {
	p := Fig6RightParams{
		TotalThreads: 4, Splits: [][2]int{{2, 2}}, ReadLens: []int{4},
		Iter: 2, HotSpots: 8, WritesPerFuture: 2,
	}
	res, err := RunFig6Right(tiny(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 { // WTF + JTF
		t.Fatalf("points = %d", len(res.Points))
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "JVSTM") {
		t.Fatal("missing normalization note")
	}
}

func TestRunFig7(t *testing.T) {
	p := Fig7Params{
		Threads:        []int{2},
		Contention:     []ContentionLevel{{"high", 4}},
		ReadsPerFuture: 4,
		Iter:           2,
	}
	res, err := RunFig7(tiny(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 { // JVSTM, WTF, JTF
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.TopAbortRate < 0 || pt.TopAbortRate > 1 || pt.InternalAbortRate < 0 || pt.InternalAbortRate > 1 {
			t.Fatalf("rate out of range: %+v", pt)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 7b") {
		t.Fatal("missing abort table")
	}
}

func TestRunFig8(t *testing.T) {
	p := Fig8Params{
		Threads: []int{2}, UpdatePcts: []int{50}, Accounts: 64,
		PairsPerTransfer: 2, ChunkFactor: 2, Iter: 1, TopLevels: 2,
	}
	res, err := RunFig8(tiny(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "WTF-OutOfOrder") {
		t.Fatal("missing variant")
	}
}

func TestRunFig9(t *testing.T) {
	p := Fig9Params{
		Clients: []int{1}, Futures: []int{2}, JVSTMClients: []int{1},
		Relations: 32, QueryPct: 10, QueriesPerTxn: 6, Iter: 1,
		StragglerPct: 20, StragglerDelay: time.Millisecond, Customers: 8,
	}
	res, err := RunFig9(tiny(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 { // JVSTM@1, WTF, JTF
		t.Fatalf("points = %d", len(res.Points))
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Vacation") {
		t.Fatal("missing header")
	}
}

func TestRunAblation(t *testing.T) {
	res, err := RunAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// LAC must block on the running escapee; GAC must not.
	if res.LACCommitLatency < 4*time.Millisecond {
		t.Fatalf("LAC commit latency = %v, expected to block ~5ms", res.LACCommitLatency)
	}
	if res.GACCommitLatency > res.LACCommitLatency {
		t.Fatalf("GAC (%v) slower than LAC (%v)", res.GACCommitLatency, res.LACCommitLatency)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "LAC") {
		t.Fatal("missing ablation rows")
	}
}

func TestRunAborts(t *testing.T) {
	p := AbortsParams{TopLevels: 2, Accounts: 16, Pairs: 2, Window: 2, UpdatePct: 90, Iter: 1}
	res, err := RunAborts(tiny(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"WO/LAC", "WO/GAC", "SO/LAC", "SO/GAC"}
	if len(res.Points) != len(want) {
		t.Fatalf("points = %d, want one per mode", len(res.Points))
	}
	for i, pt := range res.Points {
		if pt.Mode != want[i] {
			t.Fatalf("point %d is mode %q, want %q", i, pt.Mode, want[i])
		}
		if pt.Chunks <= 0 {
			t.Fatalf("%s replayed no chunk: %+v", pt.Mode, pt)
		}
		// Only SO aborts a continuation; only GAC lets a future escape the
		// commit and be re-executed at its evaluation.
		if strings.HasPrefix(pt.Mode, "WO/") && pt.SOContinuation != 0 {
			t.Fatalf("%s counted %d SO continuation aborts", pt.Mode, pt.SOContinuation)
		}
		if strings.HasSuffix(pt.Mode, "/LAC") && pt.EscapeReexecs != 0 {
			t.Fatalf("%s counted %d escape re-executions", pt.Mode, pt.EscapeReexecs)
		}
		if pt.HotCount > pt.Backward {
			t.Fatalf("%s blames one account %d times out of %d backward aborts", pt.Mode, pt.HotCount, pt.Backward)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "stm-backward") {
		t.Fatalf("print output:\n%s", buf.String())
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(100, time.Second); got != 100 {
		t.Fatalf("throughput = %v", got)
	}
	if Throughput(100, 0) != 0 {
		t.Fatal("zero-elapsed throughput")
	}
}

func TestRateAndSpeedup(t *testing.T) {
	if got := Rate(1, 4); got != 0.25 {
		t.Fatalf("rate = %v", got)
	}
	if Rate(1, 0) != 0 {
		t.Fatal("zero-total rate")
	}
	if got := Speedup(30, 10); got != 3 {
		t.Fatalf("speedup = %v", got)
	}
	if Speedup(1, 0) != 0 {
		t.Fatal("zero-base speedup")
	}
}
