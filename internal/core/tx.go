package core

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"wtftm/internal/history"
	"wtftm/internal/mvstm"
	"wtftm/internal/sched"
)

// Tx is the handle user code uses to access shared state inside a top-level
// transaction or a future body. It is bound to the current sub-transaction
// vertex and is re-bound at every Submit/Evaluate boundary (the paper's
// implicit sub-transaction checkpoints), so a Tx must only be used by the
// flow it was handed to and never stored across transactions: the handle is
// arena memory (pool.go) and serves another transaction afterwards.
type Tx struct {
	top *topTx
	cur *vertex

	// slot is the handle's position in top.flows while its flow is live (-1
	// once the body finished); lastFut is the future this flow submitted
	// last, which an SO sibling submitted next must wait for. Both guarded
	// by top.mu.
	slot    int
	lastFut *Future

	// Visible-write index: box -> the nearest iCommitted proper ancestor's
	// write, i.e. what a first read of the box in cur resolves to before
	// falling back to the top-level snapshot. The map is touched only by the
	// owning flow's goroutine, so it needs no lock of its own; graph
	// mutations on other flows communicate through pending/visDirty (written
	// under top.mu held exclusively, consumed by the owner under at least
	// top.mu.RLock — the two can never overlap) and flip visOK, which the
	// lock-free read path checks under the gver seqlock.
	//
	// The map outlives the attempt with the handle; visBuilt says whether it
	// currently holds this flow's index.
	vis      map[*mvstm.VBox]writeEntry
	visBuilt bool
	// pending holds merge patches (chain write sets folded into a proper
	// ancestor with no intervening same-path writes) to fold into vis, in
	// merge order.
	pending []map[*mvstm.VBox]writeEntry
	// visDirty forces a full rebuild: the ancestor path itself changed
	// (discard, segment rollback, re-rooting at an evaluation point).
	visDirty bool
	// visOK is true iff vis is built, pending is empty and visDirty is
	// unset. Owner stores true under (R)Lock; mutators store false under
	// Lock; the lock-free fast path loads it.
	visOK atomic.Bool
}

// reset readies a handle for its arena's next attempt: every reference is
// dropped, a modest index map is kept (emptied).
func (tx *Tx) reset() {
	tx.cur, tx.lastFut = nil, nil
	if len(tx.vis) > isetRetain {
		tx.vis = nil
	} else {
		clear(tx.vis)
	}
	clear(tx.pending)
	tx.pending = tx.pending[:0]
	tx.visBuilt, tx.visDirty = false, false
	tx.visOK.Store(false)
}

// markDirtyLocked invalidates the flow's index. Caller holds top.mu
// exclusively (or is the owner before any concurrency).
func (tx *Tx) markDirtyLocked() {
	tx.visDirty = true
	tx.visOK.Store(false)
}

// refreshVis brings the index up to date: fold pending merge patches in
// order, or rebuild from the ancestor chain when the path itself changed.
// Only the owning flow calls it, holding at least top.mu.RLock.
func (tx *Tx) refreshVis() {
	if tx.visOK.Load() {
		return
	}
	if tx.visBuilt && !tx.visDirty {
		for _, p := range tx.pending {
			for b, we := range p {
				tx.vis[b] = we
			}
		}
		clear(tx.pending)
		tx.pending = tx.pending[:0]
		tx.visOK.Store(true)
		return
	}
	tx.visBuilt, tx.visDirty = true, false
	clear(tx.pending)
	tx.pending = tx.pending[:0]
	if tx.vis == nil {
		tx.vis = make(map[*mvstm.VBox]writeEntry)
	} else {
		clear(tx.vis)
	}
	// Nearest ancestor wins: walk upward, keep the first write per box.
	for v := tx.cur.pred; v != nil; v = v.pred {
		v.vmu.Lock()
		for b, we := range v.writes.all() {
			if _, ok := tx.vis[b]; !ok {
				tx.vis[b] = we
			}
		}
		v.vmu.Unlock()
	}
	tx.visOK.Store(true)
}

// absorbWrites folds a just-iCommitted vertex's write set into the index
// (the vertex becomes a proper ancestor of the flow's next vertex). Called
// by the owner at sub-transaction boundaries, holding top.mu exclusively;
// v's writes are frozen at that point so reading them unlocked is safe.
func (tx *Tx) absorbWrites(v *vertex) {
	switch {
	case tx.visOK.Load():
		for b, we := range v.writes.all() {
			tx.vis[b] = we
		}
	case tx.visBuilt && !tx.visDirty:
		// Pending-mode: vis ⊕ pending must stay equal to the true visible
		// set. v is nearer than any pending merge's target, so its writes
		// fold last; copied because v's set can later mutate (v may itself
		// become a merge target) while the patch waits.
		if v.writes.size() > 0 {
			cp := make(map[*mvstm.VBox]writeEntry, v.writes.size())
			for b, we := range v.writes.all() {
				cp[b] = we
			}
			tx.pending = append(tx.pending, cp)
		}
		// Dirty or unbuilt: the next refreshVis rebuild covers v.
	}
}

// System returns the engine this transaction runs on.
func (tx *Tx) System() *System { return tx.top.sys }

// Flow returns the logical thread-of-control id of this handle (0 for the
// main flow of the top-level transaction, a positive id per future body).
func (tx *Tx) Flow() int { return tx.cur.flow }

// checkAlive aborts the current flow (by unwinding to the retry loop) when
// the top-level transaction has been aborted by a concurrent event, e.g. an
// SO continuation conflict detected by a future.
func (tx *Tx) checkAlive() {
	if tx.top.aborted.Load() {
		panic(&retrySignal{cause: tx.top.abortCause()})
	}
	if tx.top.segMode && tx.cur.flow == 0 {
		if to := tx.top.rollbackPending(); to != noRollback {
			panic(&segSignal{to: int(to)})
		}
	}
}

// awaitSettled blocks until f settled, with await's unwind rules. A future
// that already settled costs one load.
func (tx *Tx) awaitSettled(f *Future) {
	if tx.top.sys.opts.Hook == nil && f.settled.isSet() {
		return
	}
	tx.await(f.settled.wait())
}

// await blocks on ch, unwinding on a transaction abort and — on a segmented
// transaction's main flow — on a partial-rollback request.
func (tx *Tx) await(ch <-chan struct{}) {
	top := tx.top
	if h := top.sys.opts.Hook; h != nil {
		tx.awaitHook(h, ch)
		return
	}
	for {
		if top.segMode && tx.cur.flow == 0 {
			select {
			case <-ch:
				return
			case <-top.abortChan():
				panic(&retrySignal{cause: top.abortCause()})
			case <-top.rollbackChan():
				if to := top.rollbackPending(); to != noRollback {
					panic(&segSignal{to: int(to)})
				}
				continue // already-handled request; re-arm
			}
		}
		select {
		case <-ch:
			return
		case <-top.abortChan():
			panic(&retrySignal{cause: top.abortCause()})
		}
	}
}

// awaitHook is await under a scheduler hook: the wait is delegated to the
// harness so a paused sibling cannot wedge it, with the same unwind rules.
func (tx *Tx) awaitHook(h sched.Hook, ch <-chan struct{}) {
	top := tx.top
	seg := top.segMode && tx.cur.flow == 0
	for {
		if top.aborted.Load() {
			panic(&retrySignal{cause: top.abortCause()})
		}
		if seg {
			if to := top.rollbackPending(); to != noRollback {
				panic(&segSignal{to: int(to)})
			}
		}
		if closedNow(ch) {
			return
		}
		h.Park(func() bool {
			if closedNow(ch) || top.aborted.Load() {
				return true
			}
			return seg && top.rollbackPending() != noRollback
		})
	}
}

// Abort aborts the enclosing top-level transaction permanently; Atomic
// returns err without retrying. Inside a future body, prefer returning an
// error from the body, which aborts only the future.
func (tx *Tx) Abort(err error) {
	if err == nil {
		err = fmt.Errorf("core: transaction aborted by program")
	}
	panic(&userAbort{err: err})
}

// Read returns the value of b as seen by the current sub-transaction: its
// own buffered write if any, otherwise the write of the closest iCommitted
// ancestor in G, otherwise the newest version visible at the top-level
// transaction's snapshot. Repeated reads of the same box within one
// sub-transaction are stable.
func (tx *Tx) Read(b *mvstm.VBox) any {
	tx.top.sys.yield(sched.PointRead, b.Name)
	tx.checkAlive()
	top := tx.top
	cur := tx.cur

	// Own-vertex hits need no graph lock at all: cur's data maps are only
	// mutated by this flow (merges target either iCommitted ancestors or the
	// evaluator's own vertex, never another flow's active vertex).
	cur.vmu.Lock()
	if we, ok := cur.writes.get(b); ok {
		cur.vmu.Unlock()
		return we.val
	}
	if obs, ok := cur.reads.get(b); ok {
		cur.vmu.Unlock()
		return obs.val
	}
	cur.vmu.Unlock()

	// Ancestor resolution, lock-free fast path: all proper ancestors are
	// iCommitted and therefore frozen, so when the flow's visible-write
	// index is current one map lookup (or a lock-free snapshot read)
	// resolves the read. The gver seqlock validates the window: if no
	// mutation epoch overlapped [s, recheck], the index was current and
	// every later validator will observe the read we just recorded (it must
	// bump gver before scanning). On a race the tentative read is retracted
	// — a validator may have glimpsed it, which is conservative-safe (at
	// worst a spurious parked future or re-execution).
	if s := top.gver.Load(); s&1 == 0 && tx.visOK.Load() {
		var obs readObs
		if we, ok := tx.vis[b]; ok {
			obs = readObs{val: we.val, flow: we.flow, wid: we.wid}
		} else {
			ver := b.ReadAt(top.snap)
			obs = readObs{val: ver.Value, ver: ver}
		}
		cur.vmu.Lock()
		cur.addRead(b, obs)
		cur.vmu.Unlock()
		if top.gver.Load() == s {
			tx.recordRead(cur, b, obs)
			return obs.val
		}
		cur.vmu.Lock()
		// Only this flow inserts into cur.reads, so the retraction removes
		// exactly the tentative entry. The summary bit stays set — summaries
		// only ever over-approximate.
		cur.reads.del(b)
		cur.vmu.Unlock()
	}

	top.mu.RLock()
	tx.refreshVis()
	var obs readObs
	if we, ok := tx.vis[b]; ok {
		obs = readObs{val: we.val, flow: we.flow, wid: we.wid}
	} else {
		ver := b.ReadAt(top.snap)
		obs = readObs{val: ver.Value, ver: ver}
	}
	cur.vmu.Lock()
	// Keep the first observation if one was registered in the meantime (a
	// merge may have folded a read into cur while we resolved).
	if prev, ok := cur.reads.get(b); ok {
		obs = prev
	} else {
		cur.addRead(b, obs)
	}
	cur.vmu.Unlock()
	top.mu.RUnlock()

	tx.recordRead(cur, b, obs)
	return obs.val
}

// recordRead emits a history op for a first read, when recording is on. The
// observation tag is formatted with strconv on a stack buffer: fmt.Sprintf's
// interface boxing and verb parsing showed up in read-path profiles even
// though recording is off on the benchmark configurations that exercise it.
func (tx *Tx) recordRead(cur *vertex, b *mvstm.VBox, obs readObs) {
	top := tx.top
	if top.sys.opts.Recorder == nil {
		return
	}
	var buf [21]byte
	var tag []byte
	if obs.ver != nil {
		tag = append(buf[:0], 'v')
		tag = strconv.AppendInt(tag, obs.ver.TS, 10)
	} else {
		tag = append(buf[:0], 'w')
		tag = strconv.AppendInt(tag, obs.wid, 10)
	}
	top.sys.record(history.Op{
		Top: top.id, Flow: cur.flow, Kind: history.Read, Var: b.Name, Obs: string(tag),
	})
}

// Write buffers a write of v to b in the current sub-transaction. It
// becomes visible to later sub-transactions of the same top-level
// transaction when this sub-transaction iCommits, and to other top-level
// transactions when the top-level transaction commits.
func (tx *Tx) Write(b *mvstm.VBox, v any) {
	tx.top.sys.yield(sched.PointWrite, b.Name)
	tx.checkAlive()
	wid := tx.top.sys.nextWID()
	tx.cur.vmu.Lock()
	tx.cur.addWrite(b, writeEntry{val: v, wid: wid, flow: tx.cur.flow})
	tx.cur.vmu.Unlock()
	if tx.top.sys.opts.Recorder != nil {
		tx.top.sys.record(history.Op{
			Top: tx.top.id, Flow: tx.cur.flow, Kind: history.Write, Var: b.Name, WID: wid,
		})
	}
}

// Submit spawns body as a transactional future: a parallel sub-transaction
// of the enclosing top-level transaction. The current sub-transaction
// iCommits (its writes become visible to the future) and the flow continues
// in a fresh continuation sub-transaction. The returned Future can be
// evaluated by this or — depending on the Atomicity semantics — any other
// transaction.
func (tx *Tx) Submit(body func(*Tx) (any, error)) *Future {
	tx.top.sys.yield(sched.PointSubmit, "")
	tx.checkAlive()
	top := tx.top
	sys := top.sys

	top.lockG()
	f := tx.spawnLocked(body)
	top.unlockG()
	top.refs.Add(1)

	sys.stats.FuturesSubmitted.Add(1)
	sys.record(history.Op{Top: top.id, Flow: tx.cur.flow, Kind: history.Submit, Arg: f.name()})
	if h := sys.opts.Hook; h != nil {
		h.SpawnExpected()
	}
	sys.dispatch(f)
	if top.serialSubmit {
		tx.awaitSettled(f)
	}
	return f
}

// spawnLocked is Submit's graph mutation: the caller's vertex iCommits, the
// future's first vertex and the continuation vertex hang off it, and the
// future and its body's Tx handle are registered. Caller holds top.mu
// exclusively.
func (tx *Tx) spawnLocked(body func(*Tx) (any, error)) *Future {
	top, sys := tx.top, tx.top.sys
	if top.att == nil {
		top.att = &attempt{id: top.id}
	}
	spawner := tx.cur
	spawner.status = vICommitted
	fv := top.newVertex(top.nextFlow(), spawner)
	cv := top.newVertex(spawner.flow, spawner)
	// newVertex set spawner.next to whichever same-flow vertex came last;
	// the continuation extends the spawner's flow.
	spawner.next = cv

	f := &Future{
		sys:           sys,
		att:           top.att,
		top:           top,
		id:            len(top.futures) + 1,
		flow:          fv.flow,
		body:          body,
		vertex:        fv,
		cont:          cv,
		submitSegment: spawner.segment,
		prevInFlow:    tx.lastFut,
	}
	fv.fut = f
	// The body's Tx is created here (not in run) so invalidations reach its
	// visible-write index from the first instant; its index itself builds
	// lazily on the body's first ancestor-resolving read.
	f.ftx = top.newTx(fv)
	tx.lastFut = f
	top.futures = append(top.futures, f)
	// The spawner just iCommitted: its writes become visible to the
	// continuation.
	tx.absorbWrites(spawner)
	tx.cur = cv
	return f
}

// Evaluate blocks until f's result is available and f has been serialized
// (at its submission point or, under WO semantics, at this evaluation
// point), then returns the value produced by f's committed execution.
// Repeated evaluations are idempotent. A non-nil error is the error f's
// body aborted with.
func (tx *Tx) Evaluate(f *Future) (any, error) {
	tx.top.sys.yield(sched.PointEvaluate, f.name())
	tx.checkAlive()
	tx.top.sys.record(history.Op{
		Top: tx.top.id, Flow: tx.cur.flow, Kind: history.Evaluate, Arg: f.name(),
	})
	if f.att != tx.top.att {
		return tx.evaluateForeign(f)
	}
	return tx.evaluateLocal(f)
}

// TryEvaluate is the non-blocking variant of Evaluate (§3.2): if f's body
// is still executing it returns ok == false without affecting f's possible
// serialization orders; otherwise it behaves exactly like Evaluate.
func (tx *Tx) TryEvaluate(f *Future) (val any, ok bool, err error) {
	tx.checkAlive()
	if !f.execDone.isSet() {
		return nil, false, nil
	}
	val, err = tx.Evaluate(f)
	return val, true, err
}
