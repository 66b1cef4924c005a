package main

import (
	"fmt"
	"path/filepath"
	"time"

	"wtftm/internal/mvstm"
)

// bankLadder is the traced replay of bank-futures: the first ops of
// top-level goroutine 0's log, once under a plain MV-STM transaction per
// chunk (rung mvstm+tstruct — there is no tstruct here, only boxes) and
// once through the futures engine exactly as the measured run does it
// (rung core). Wire, WAL, server and client do not exist for this workload.
func bankLadder(cfg *config, w *workload, res *runResult, in bankInput) error {
	primitives(res)
	// A chunk through the engine costs milliseconds, so the bank ladder
	// replays a quarter of the ops a served ladder does.
	chunks := in[:min(len(in), max(cfg.ladderOps/4/bankChunk, 1))]

	pass := func(tr *tracer) (time.Duration, error) {
		sys := newBankSystem()
		t0 := time.Now()
		for c, chunk := range chunks {
			top := tr.begin(spOp, rungSubstrate, int32(c), -1)
			s := tr.begin(spMvstmTxn, rungSubstrate, int32(c), top)
			err := sys.stm.Atomic(func(t *mvstm.Txn) error {
				for _, e := range chunk {
					a := tr.begin(spBankApply, rungSubstrate, int32(c), s)
					sys.b.Apply(t, e, nil)
					tr.end(a)
				}
				return nil
			})
			tr.end(s)
			tr.end(top)
			if err != nil {
				return 0, err
			}
		}
		var samples []opSample
		for c, chunk := range chunks {
			top := tr.begin(spOp, rungCore, int32(c), -1)
			var err error
			samples, _, err = sys.replayChunk(chunk, samples, tr, int32(c), top)
			tr.end(top)
			if err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	// Three passes, as in the served ladder: warm, one span per chunk, all
	// spans.
	if _, err := pass(nil); err != nil {
		return err
	}
	light := newTracer(2*len(chunks)+1024, true)
	plain, err := pass(light)
	if err != nil {
		return err
	}
	tr := newTracer(len(chunks)*(8+5*bankChunk)+1024, false)
	traced, err := pass(tr)
	if err != nil {
		return err
	}
	spans := tr.recorded()
	tracePath := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := writeTrace(tracePath, rungNames, spans); err != nil {
		return err
	}
	nOps := len(chunks) * bankChunk
	res.note("ladder: %d spans written to %s", len(spans), tracePath)
	res.set("trace.overhead_ratio", float64(traced-plain)/float64(plain), "ratio", int64(nOps))
	res.note("ladder rungs (mvstm, core), %d ops each: %.0f ops/s with one span per chunk, %.0f ops/s with every engine call in a span",
		nOps, 2*float64(nOps)/plain.Seconds(), 2*float64(nOps)/traced.Seconds())

	ss := &spanStats{spans: spans, self: selfTimes(spans)}
	med(res, "mvstm.txn_self_ns", ss.collect(rungSubstrate, spMvstmTxn, anyClass, true), 1, "ns")
	if sub, ev := ss.collect(rungCore, spCoreSubmit, anyClass, false), ss.collect(rungCore, spCoreEvaluate, anyClass, false); len(sub) > 0 && len(sub) == len(ev) {
		// Evaluation is out of order here, so the k-th Evaluate is not the
		// k-th Submit's future; the per-future cost is the two medians added.
		res.set("core.submit_evaluate_ns", median(sub)+median(ev), "ns", int64(len(sub)))
	}
	perChunk := &spanStats{spans: light.recorded()}
	sub := median(perChunk.collect(rungSubstrate, spOp, anyClass, false)) / 1e3
	cor := median(perChunk.collect(rungCore, spOp, anyClass, false)) / 1e3
	fmt.Fprintf(&res.tables, "\n  ladder, medians per %d-op chunk (us): mvstm %.2f, core %.2f, core − mvstm %.2f (futures, graph, validation)\n", bankChunk, sub, cor, cor-sub)
	return nil
}
