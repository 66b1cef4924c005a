package core

import (
	"wtftm/internal/history"
	"wtftm/internal/mvstm"
)

// detachRec captures what an escaped future observed and produced, expressed
// against committed state, so that a different top-level transaction can
// decide whether the execution is still serializable at its evaluation point
// (§4.2, Globally Atomic Continuations).
type detachRec struct {
	reads  []detRead
	writes []detWrite
}

// detRead is one read of an escaped future. ver is the committed version the
// read is equivalent to: the version the future actually read (top-snapshot
// reads) or the version its spawning transaction installed (reads of
// sub-transaction state that became the spawner's final committed value).
// ok is false when the observation cannot be expressed against committed
// state — the future read an intermediate value its spawner overwrote before
// committing, or the uncommitted write of another escaped future — in which
// case no later evaluation point can accept the execution as-is.
type detRead struct {
	box *mvstm.VBox
	ver *mvstm.Version
	ok  bool
}

// detWrite is one write of an escaped future, in chain order. The original
// write id is preserved so recorded histories stay resolvable.
type detWrite struct {
	box *mvstm.VBox
	val any
	wid int64
}

// buildDetach resolves the future's read/write sets against its (committed)
// spawning transaction. Caller holds f.mu; f.top must have committed and f
// must be parked.
func buildDetach(f *Future) *detachRec {
	t := f.top
	rec := &detachRec{}
	t.mu.RLock()
	defer t.mu.RUnlock()
	seenR := make(map[*mvstm.VBox]bool)
	seenW := make(map[*mvstm.VBox]int)
	for c := f.vertex; c != nil; c = c.next {
		c.vmu.Lock()
		for b, obs := range c.reads.all() {
			if seenR[b] {
				continue
			}
			seenR[b] = true
			switch {
			case obs.ver != nil:
				rec.reads = append(rec.reads, detRead{box: b, ver: obs.ver, ok: true})
			case int(obs.flow) == f.flow:
				// A read of the future's own chain is self-satisfied at any
				// serialization point.
			default:
				// The future observed an uncommitted sub-transaction write of
				// its spawning transaction: it is equivalent to the committed
				// version iff that write was the spawner's final write to the
				// box.
				ver, installed := t.installed[b]
				ok := installed && t.finalWID[b] == obs.wid
				rec.reads = append(rec.reads, detRead{box: b, ver: ver, ok: ok})
			}
		}
		for b, we := range c.writes.all() {
			if i, dup := seenW[b]; dup {
				rec.writes[i].val = we.val
				rec.writes[i].wid = we.wid
				continue
			}
			seenW[b] = len(rec.writes)
			rec.writes = append(rec.writes, detWrite{box: b, val: we.val, wid: we.wid})
		}
		c.vmu.Unlock()
	}
	return rec
}

// evaluateForeign evaluates a future spawned by a different top-level
// transaction than the caller's.
func (tx *Tx) evaluateForeign(f *Future) (any, error) {
	top := tx.top
	hook := top.sys.opts.Hook

	// The reference must have reached us through committed state (or an
	// out-of-band channel): wait for the spawning transaction's outcome. A
	// retained handle is usually long past both waits.
	if hook != nil || !f.att.committed.isSet() {
		switch waitAny3(hook, f.att.committed.wait(), f.att.aborted.wait(), top.abortChan()) {
		case 1:
			return nil, ErrStaleFuture
		case 2:
			panic(&retrySignal{cause: top.abortCause()})
		}
	}
	if hook != nil || !f.settled.isSet() {
		if waitAny2(hook, f.settled.wait(), top.abortChan()) == 1 {
			panic(&retrySignal{cause: top.abortCause()})
		}
	}

	switch f.getState() {
	case fMerged:
		// Serialized within (and committed by) its spawning transaction —
		// including LAC implicit evaluations. Idempotent repeated
		// evaluation: hand back the committed result.
		return f.result, nil
	case fUserAborted:
		return nil, f.err
	case fStale, fFailed:
		return nil, ErrStaleFuture
	}

	// GAC escapee: claim it, then serialize it at this evaluation point.
	f.mu.Lock()
	for {
		if f.final {
			res, err := f.result, f.err
			f.mu.Unlock()
			return res, err
		}
		if f.claimant == nil {
			f.claimant = top
			f.claimCh = make(chan struct{})
			break
		}
		ch := f.claimCh
		f.mu.Unlock()
		if waitAny2(hook, ch, top.abortChan()) == 1 {
			panic(&retrySignal{cause: top.abortCause()})
		}
		f.mu.Lock()
	}
	if f.detach == nil {
		f.detach = buildDetach(f)
	}
	det := f.detach
	f.mu.Unlock()
	top.addClaim(f)

	top.lockG()
	if t := top; t.aborted.Load() {
		t.unlockG()
		panic(&retrySignal{cause: t.abortCause()})
	}
	if tx.detachValid(det) {
		// The escaped execution is still current: serialize it here by
		// folding its effects into the evaluating sub-transaction.
		cur := tx.cur
		cur.vmu.Lock()
		for _, r := range det.reads {
			if _, slot, ok := cur.reads.find(r.box); !ok {
				cur.addRead(slot, r.box, readObs{val: r.ver.Value, ver: r.ver})
			}
		}
		for _, w := range det.writes {
			cur.addWrite(w.box, writeEntry{val: w.val, wid: w.wid, flow: cur.flow})
		}
		cur.vmu.Unlock()
		tx.boundaryLocked()
		top.unlockG()
		top.sys.stats.MergedAtEvaluation.Add(1)
		top.sys.record(history.Op{Top: top.id, Flow: tx.cur.flow, Kind: history.FutureMerge, Arg: "evaluation/escaped " + f.name()})
		f.mu.Lock()
		res := f.result
		f.mu.Unlock()
		return res, nil
	}
	top.unlockG()

	// Stale: re-execute the body at this evaluation point, inside the
	// evaluating transaction.
	top.sys.stats.EscapeReexecutions.Add(1)
	top.sys.record(history.Op{Top: top.id, Flow: tx.cur.flow, Kind: history.FutureAbort, Arg: f.name()})
	res, err := tx.runInline(f.body, f.name())
	if err != nil {
		top.sys.record(history.Op{Top: top.id, Flow: tx.cur.flow, Kind: history.FutureAbort, Arg: f.name()})
	}
	f.mu.Lock()
	f.result, f.err = res, err
	f.mu.Unlock()
	return res, err
}

// detachValid reports whether every read of the detached execution is still
// current at the caller's evaluation point: no ancestor sub-transaction
// wrote the box, and the version visible at the caller's snapshot is the one
// the future observed. Ancestor writes resolve through the flow's
// visible-write index (one lookup per read instead of a chain walk); the
// current vertex is checked separately since the index excludes it. Caller
// holds top.mu exclusively.
func (tx *Tx) detachValid(det *detachRec) bool {
	tx.refreshVis()
	cur := tx.cur
	for _, r := range det.reads {
		if !r.ok {
			return false
		}
		cur.vmu.Lock()
		_, wrote := cur.writes.get(r.box)
		cur.vmu.Unlock()
		if wrote {
			return false
		}
		if _, wrote := tx.vis.get(r.box); wrote {
			return false
		}
		if r.box.ReadAt(tx.top.snap) != r.ver {
			return false
		}
	}
	return true
}
