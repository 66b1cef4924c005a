package core

import (
	"wtftm/internal/history"
	"wtftm/internal/mutant"
	"wtftm/internal/mvstm"
)

// An escaped (GAC) future is serialized at its evaluation point in a later
// top-level transaction (§3.4, Globally Atomic Continuations). Its chain is
// judged where it lies, in its spawner's arena, which is never recycled once
// the spawner commits with an escapee; the chain and the spawner's main
// chain are frozen from that commit and the future's settling on (DESIGN
// §9).

// atSnapshot reports whether a read entry stands for a read of the
// top-level snapshot: its own (ver), or one a fold hid under it (hidden,
// keepRead). Such a read holds at another point only where the box's
// visible version is the one it read; it is what the top-level commit
// validates (commitReads), what a failing body leaves behind
// (keepErrorReads), and half of readHolds.
func (o readObs) atSnapshot() bool { return o.ver != nil || o.hidden }

// readHolds is the read rule for an entry of an execution of flow self in
// the committed attempt t, judged at snapshot snap where no ancestor of the
// evaluation point wrote b. With vis b's version at snap:
//   - a snapshot read holds iff vis is obs.ver;
//   - a hidden entry's snapshot read iff vis is the version at t's snapshot
//     (the fold kept no version: snap must not be older, vis not newer);
//   - a read of another flow's sub-transaction write iff that write is t's
//     final main-chain write of b and vis is the one t's commit installed;
//   - a read of the chain's own write always.
//
// At t's own commit the last two hold by its graph's validations and the
// first two are the substrate's check of commitReads. Caller holds t.mu
// shared.
func (t *topTx) readHolds(b *mvstm.VBox, obs readObs, self int, snap int64) bool {
	vis := b.ReadAt(snap)
	switch {
	case obs.ver != nil:
		return vis == obs.ver
	case int(obs.flow) != self && (vis.TS != t.commitTS || t.finalWrite(b) != obs.wid):
		return false
	case !obs.hidden || mutant.Active == mutant.EscapeIgnoresHidden:
		return true
	}
	return snap >= t.snap && vis.TS <= t.snap
}

// finalWrite returns the write id of the committed main chain's last write
// of b, the one its commit installed, or 0 (write ids start at 1). Caller
// holds t.mu shared.
func (t *topTx) finalWrite(b *mvstm.VBox) int64 {
	bs := b.Summary()
	for v := t.mainTx.cur; v != nil; v = v.pred {
		if v.writeSum.Load()&bs == bs {
			if we, ok := v.writes.Get(b); ok {
				return we.wid
			}
		}
	}
	return 0
}

// foldEscapee serializes f's escaped chain into the caller's current
// vertex if every read of it holds there (readHolds), and reports whether
// it did. Reads of the chain's own writes hold wherever it folds, over the
// caller's writes too; ancestor writes resolve through the flow's
// visible-write index, which the caller refreshed, and cur's separately.
// Every other read becomes a read of the version visible at the caller's
// snapshot, which the caller's commit validates; unless the body failed,
// the writes follow in chain order, later ones winning. Caller holds top.mu
// exclusively, then f.top.mu shared.
func (tx *Tx) foldEscapee(f *Future) bool {
	cur, snap := tx.cur, tx.top.snap
	for fold := range 2 {
		for c := f.vertex; c != nil; c = c.next {
			for b, obs := range c.reads.All() {
				switch {
				case !obs.atSnapshot() && int(obs.flow) == f.flow:
				case fold == 0:
					_, wroteCur := cur.writes.Get(b)
					_, wroteAnc := tx.vis.Get(b)
					if wroteCur || wroteAnc || !f.top.readHolds(b, obs, f.flow, snap) {
						return false
					}
				default:
					if slot, ok := cur.reads.Slot(b); !ok {
						ver := b.ReadAt(snap)
						*cur.addRead(slot, b) = readObs{val: ver.Value, ver: ver}
					}
				}
			}
			if fold == 1 && f.getState() != fUserAborted {
				for b, we := range c.writes.All() {
					cur.addWrite(b, writeEntry{val: we.val, wid: we.wid, flow: cur.flow})
				}
			}
		}
	}
	return true
}

// onPath reports whether v is tx's current vertex or one of its ancestors,
// whose effects it sees. Caller holds top.mu.
func (tx *Tx) onPath(v *vertex) bool {
	for c := tx.cur; c != nil; c = c.pred {
		if c == v {
			return true
		}
	}
	return false
}

// moveDecisions follows the decisions of this attempt's claims (Future.at)
// held by the chain marked ep: into target, which a merge folded the chain
// into, or nowhere if it was discarded, which voids them. Flows waiting for
// a decision to reach their path wake. Caller holds top.mu exclusively.
func (t *topTx) moveDecisions(ep uint64, target *vertex) {
	for _, f := range t.claims {
		if f.at != nil && f.at.mark == ep {
			f.mu.Lock()
			f.at = target
			f.wake()
			f.mu.Unlock()
		}
	}
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
		switch waitAny(hook, f.att.committed.wait(), f.att.aborted.wait(), top.abortChan()) {
		case 1:
			return nil, ErrStaleFuture
		case 2:
			panic(&retrySignal{cause: top.abortCause()})
		}
	}
	if hook != nil || !f.settled.isSet() {
		if waitAny(hook, f.settled.wait(), top.abortChan(), nil) == 1 {
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
		if f.top == nil || mutant.Active == mutant.ForeignErrorUnchecked {
			// It failed before its spawner's fold, which dropped its graph
			// and validated the reads behind the error (keepErrorReads).
			return nil, f.err
		}
		// It failed after the fold: an escapee like any other, whose chain
		// is nil if it failed re-executed in a sibling (reexecuteLocked).
	case fStale, fFailed:
		return nil, ErrStaleFuture
	}

	// GAC escapee: claim it, then serialize it at this evaluation point. A
	// repeat evaluation by the claiming attempt returns what the attempt
	// decided once the vertex holding it lies on this flow's path; until a
	// merge brings it there, the flow waits. A decision whose chain was
	// discarded is made again.
	for {
		top.lockG()
		if top.aborted.Load() {
			top.unlockG()
			panic(&retrySignal{cause: top.abortCause()})
		}
		f.mu.Lock()
		d, mine := f.decided, f.claimant == top
		res, err, done := f.result, f.err, f.final
		if mine && d != nil && (tx.onPath(f.at) || mutant.Active == mutant.DecisionAnywhere) {
			tx.boundaryLocked() // a boundary, like the first evaluation
			res, err, done = d.res, d.err, true
		}
		if done {
			f.mu.Unlock()
			top.unlockG()
			return res, err
		}
		if f.claimant == nil || mine && d != nil && f.at == nil {
			if !mine {
				f.claimant, f.claimCh = top, make(chan struct{})
				top.claims = append(top.claims, f)
			}
			f.decided = nil
			f.mu.Unlock()
			break
		}
		ch := f.claimCh
		f.mu.Unlock()
		top.unlockG()
		if waitAny(hook, ch, top.abortChan(), nil) == 1 {
			panic(&retrySignal{cause: top.abortCause()})
		}
	}

	holds := false
	if !top.phaseAtLeast(phaseFolding) {
		// Only an evaluator before its own fold walks the chain, so no flow
		// holding a committed transaction's graph lock waits for another's
		// (DESIGN §9); one past it re-executes.
		tx.refreshVis()
		f.top.mu.RLock()
		holds = f.vertex != nil && tx.foldEscapee(f)
		f.top.mu.RUnlock()
	}
	if holds {
		// The escaped execution is still current: it is serialized here.
		tx.boundaryLocked()
		f.mu.Lock()
		res, err := f.result, f.err
		f.decide(top, tx.cur.pred, res, err)
		f.mu.Unlock()
		top.unlockG()
		top.sys.stats.MergedAtEvaluation.Add(1)
		top.sys.record(history.Op{Top: top.id, Flow: tx.cur.flow, Kind: history.FutureMerge, Arg: "evaluation/escaped " + f.name()})
		return res, err
	}
	top.unlockG()

	// Stale: re-execute the body at this evaluation point, inside the
	// evaluating transaction. Its outcome replaces the escaped execution's
	// only if this transaction commits (endClaims).
	top.sys.stats.EscapeReexecutions.Add(1)
	top.sys.record(history.Op{Top: top.id, Flow: tx.cur.flow, Kind: history.FutureAbort, Arg: f.name()})
	res, err := tx.runInline(f.body, f.name())
	if err != nil {
		top.sys.record(history.Op{Top: top.id, Flow: tx.cur.flow, Kind: history.FutureAbort, Arg: f.name()})
	}
	top.lockG()
	f.mu.Lock()
	f.decide(top, tx.cur.pred, res, err)
	f.mu.Unlock()
	top.unlockG()
	return res, err
}
