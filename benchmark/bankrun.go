package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wtftm/internal/bank"
	"wtftm/internal/core"
	"wtftm/internal/mvstm"
)

// bankInput is the pre-generated log of one top-level goroutine, cut into
// chunks of bankChunk operations; each chunk replays as one top-level
// transaction with one future per operation.
type bankInput [][]bank.LogEntry

// genBankInput draws goroutine g's log from seed: bankUpdatePct% transfers
// over bankPairs account pairs, the rest getTotalAmount. It does not use
// bank.GenerateLog and its RNG: the inputs of a benchmark must not change
// when the code under test does.
func genBankInput(seed uint64, g, chunks int) bankInput {
	r := newRNG(seed, 1<<40+uint64(g))
	// Two slabs instead of an allocation per entry: set-up time then
	// measures drawing the log, not the allocator and the page-fault path.
	entries := make([]bank.LogEntry, chunks*bankChunk)
	accounts := make([]int, 0, len(entries)*2*bankPairs)
	in := make(bankInput, chunks)
	for c := range in {
		chunk := entries[c*bankChunk : (c+1)*bankChunk : (c+1)*bankChunk]
		for i := range chunk {
			if r.intn(100) >= bankUpdatePct {
				chunk[i] = bank.LogEntry{Kind: bank.GetTotal}
				continue
			}
			at := len(accounts)
			for j := 0; j < 2*bankPairs; j++ {
				accounts = append(accounts, r.intn(bankAccounts))
			}
			chunk[i] = bank.LogEntry{Kind: bank.Transfer, Amount: 1 + r.intn(5),
				From: accounts[at : at+bankPairs : at+bankPairs], To: accounts[at+bankPairs : at+2*bankPairs : at+2*bankPairs]}
		}
		in[c] = chunk
	}
	return in
}

// bankSystem is one fresh engine + bank.
type bankSystem struct {
	stm *mvstm.STM
	sys *core.System
	b   *bank.Bank
}

func newBankSystem() *bankSystem {
	stm := mvstm.New()
	return &bankSystem{stm: stm, sys: core.New(stm, core.Options{Ordering: core.WO, Atomicity: core.LAC}),
		b: bank.New(stm, bankAccounts, bankBalance)}
}

// opSample is one evaluated operation of a chunk attempt.
type opSample struct {
	read bool
	lat  int64
	end  int64
}

// replayChunk runs one chunk as a top-level transaction: up to bankWindow
// futures in flight, each evaluated as soon as its body completes
// (out-of-order evaluation, the paper's WTF-TM-OutOfOrder). It returns the
// samples of the committed attempt and the number of wrong totals seen in
// it. tr, when not nil, records a span around each engine call (the ladder
// pass); the measured run passes nil.
func (s *bankSystem) replayChunk(chunk []bank.LogEntry, samples []opSample, tr *tracer, chunkNo, parent int32) ([]opSample, int, error) {
	type launched struct {
		f     *core.Future
		read  bool
		start int64
	}
	bad := 0
	top := tr.begin(spCoreAtomic, rungCore, chunkNo, parent)
	defer tr.end(top)
	err := s.sys.Atomic(func(tx *core.Tx) error {
		samples, bad = samples[:0], 0
		completions := make(chan launched, len(chunk))
		launch := func(e bank.LogEntry) {
			l := launched{read: e.Kind == bank.GetTotal, start: now()}
			sb := tr.begin(spCoreSubmit, rungCore, chunkNo, top)
			l.f = tx.Submit(func(ftx *core.Tx) (any, error) {
				fs := tr.begin(spCoreFuture, rungCore, chunkNo, top)
				defer tr.end(fs)
				return s.b.Apply(ftx, e, nil), nil
			})
			tr.end(sb)
			go func() {
				<-l.f.Done()
				completions <- l
			}()
		}
		next, inFlight := 0, 0
		for ; next < len(chunk) && inFlight < bankWindow; next++ {
			launch(chunk[next])
			inFlight++
		}
		for inFlight > 0 {
			l := <-completions
			ev := tr.begin(spCoreEvaluate, rungCore, chunkNo, top)
			v, err := tx.Evaluate(l.f)
			tr.end(ev)
			if err != nil {
				return err
			}
			t := now()
			if l.read && v.(int) != s.b.ExpectedTotal() {
				bad++
			}
			samples = append(samples, opSample{read: l.read, lat: t - l.start, end: t})
			inFlight--
			if next < len(chunk) {
				launch(chunk[next])
				next++
				inFlight++
			}
		}
		return nil
	})
	return samples, bad, err
}

// bankPhaseResult is what the top-level goroutines measured together.
type bankPhaseResult struct {
	ops        int64
	violations int64
	readings   []reading      // the meter's, one window apart
	lat        [2][]*windowed // class × goroutine
	err        error
}

// runBankPhase replays the inputs for dur from bankTopLevels goroutines,
// metered on CPU pin.
func (s *bankSystem) runBankPhase(inputs []bankInput, dur time.Duration, record bool, pin int) *bankPhaseResult {
	p := newPhase(phaseClosed, dur)
	res := &bankPhaseResult{}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ops  atomic.Int64
		viol atomic.Int64
	)
	m := &meter{ops: ops.Load, cpu: selfCPU, pin: pin}
	readings := make(chan []reading, 1)
	go func() { readings <- m.watch(dur) }()
	for g, in := range inputs {
		var lat [2]*windowed
		if record {
			for c := range lat {
				lat[c] = newWindowed(p.nWin, 1<<12)
				res.lat[c] = append(res.lat[c], lat[c])
			}
		}
		wg.Add(1)
		go func(g int, in bankInput) {
			defer wg.Done()
			var samples []opSample
			for c := 0; now() < p.end; c++ {
				var (
					bad int
					err error
				)
				samples, bad, err = s.replayChunk(in[c%len(in)], samples, nil, 0, -1)
				if err != nil {
					mu.Lock()
					res.err = fmt.Errorf("top-level %d: %w", g, err)
					mu.Unlock()
					return
				}
				ops.Add(int64(len(samples)))
				viol.Add(int64(bad))
				if !record {
					continue
				}
				for _, sm := range samples {
					class := 1
					if sm.read {
						class = 0
					}
					lat[class].add(p.window(sm.end), sm.lat)
				}
			}
		}(g, in)
	}
	wg.Wait()
	res.readings = <-readings
	res.ops, res.violations = ops.Load(), viol.Load()
	return res
}

// runBank is the bank-futures workload.
func runBank(cfg *config, w *workload) (*runResult, error) {
	res := newRunResult(cfg, w)

	// Set-up is generating the logs and building engine and bank; it is
	// repeated and the median reported. It takes tens of milliseconds, so
	// it is repeated more often than a served workload's.
	var inputs []bankInput
	var sys *bankSystem
	var setups []float64
	for i := 0; i < 2*cfg.setupReps+1; i++ {
		runtime.GC() // every repetition starts from the same heap
		t0 := time.Now()
		inputs = inputs[:0]
		for g := 0; g < bankTopLevels; g++ {
			inputs = append(inputs, genBankInput(cfg.seed, g, cfg.bankChunks))
		}
		sys = newBankSystem()
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups), "s", int64(len(setups)))

	if r := sys.runBankPhase(inputs, cfg.warm, false, cfg.pin); r.err != nil {
		return nil, r.err
	}
	before := sys.sys.Stats().Snapshot()
	stmBefore := sys.stm.Stats().Snapshot()
	r := sys.runBankPhase(inputs, cfg.bankDur(), true, cfg.pin)
	if r.err != nil {
		return nil, r.err
	}
	after := sys.sys.Stats().Snapshot()
	stmAfter := sys.stm.Stats().Snapshot()

	res.Attempted, res.Failed = r.ops, r.violations
	if total := sys.b.Total(sys.stm); total != sys.b.ExpectedTotal() {
		res.Failed++
		res.note("final Bank.Total = %d, want %d", total, sys.b.ExpectedTotal())
	}
	if r.violations > 0 {
		res.note("%d getTotalAmount results differed from the invariant total", r.violations)
	}
	res.Correct = res.Failed == 0

	if err := res.setRates(r.readings); err != nil {
		return nil, err
	}
	res.setLatency("read", summarize(r.lat[0]))
	res.setLatency("write", summarize(r.lat[1]))
	res.set("peak_rss_mb", peakRSSMB(os.Getpid()), "MB", 1)
	res.set("failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)

	ratio := func(name string, num, den int64) {
		v := 0.0
		if den > 0 {
			v = float64(num) / float64(den)
		}
		res.set(name, v, "ratio", den)
	}
	commits := stmAfter.Commits - stmBefore.Commits
	conflicts := stmAfter.Conflicts - stmBefore.Conflicts
	res.set("mvstm.commits", float64(commits), "count", 0)
	ratio("mvstm.conflict_ratio", conflicts, commits+conflicts+stmAfter.ReadOnlyCommits-stmBefore.ReadOnlyCommits)
	res.set("mvstm.helped_commits", float64(stmAfter.HelpedCommits-stmBefore.HelpedCommits), "count", 0)
	top := after.TopCommits - before.TopCommits
	topc := after.TopConflict - before.TopConflict
	fut := after.FuturesSubmitted - before.FuturesSubmitted
	ratio("core.top_conflict_ratio", topc, top+topc)
	ratio("core.future_reexec_ratio", after.FutureReexecutions-before.FutureReexecutions, fut)
	ratio("core.merged_at_submission_ratio", after.MergedAtSubmission-before.MergedAtSubmission, fut)
	res.set("gen.cpu_share", 1, "ratio", 0) // generator and engine are one process here
	res.set("wal.fsyncs", 0, "count", 0)
	res.set("wal.records", 0, "count", 0)
	res.set("persist.snapshots", 0, "count", 0)

	if cfg.trace {
		if err := bankLadder(cfg, w, res, inputs[0]); err != nil {
			return nil, err
		}
	}
	return res, nil
}
