package core

import (
	"fmt"
	"strconv"

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

	// lastFut is the future this flow submitted last, which an SO sibling
	// submitted next must wait for. Guarded by top.mu.
	lastFut *Future

	// Visible-write index: box -> the nearest iCommitted proper ancestor's
	// write, i.e. what a first read of the box in cur resolves to before
	// falling back to the top-level snapshot. Only the owning flow touches
	// it, so it needs no lock. visGen, also owner-only, is the path
	// generation (topState.pathGen) the index was built at, -1 while
	// unbuilt: the index is current iff visGen equals pathGen. Other flows
	// never touch either; a merge or a discard, the only mutations that
	// change what a flow's ancestors wrote, bumps pathGen, and the owner
	// rebuilds on its next slow-path read (DESIGN §9). The set's storage
	// outlives the attempt with the handle.
	vis    mvstm.BoxSet[writeEntry]
	visGen int64
}

// reset readies a handle for its arena's next attempt: every reference is
// dropped, the index's storage kept against *budget.
func (tx *Tx) reset(budget *int) {
	tx.cur, tx.lastFut = nil, nil
	tx.vis.Reset(budget)
}

// refreshVis makes the index current: one built at an older path
// generation, or never built, is rebuilt from the ancestor chain. Only the
// owning flow calls it, holding at least top.mu.RLock, so no bump lands
// during the walk.
func (tx *Tx) refreshVis() {
	gen := tx.top.pathGen.Load()
	if tx.visGen == gen {
		return
	}
	tx.vis.Empty()
	// Nearest ancestor wins: walk upward, keep the first write per box.
	for v := tx.cur.pred; v != nil; v = v.pred {
		for b, we := range v.writes.All() {
			if slot, ok := tx.vis.Slot(b); !ok {
				*tx.vis.Add(slot, b) = we
			}
		}
	}
	tx.visGen = gen
}

// absorbWrites folds a just-iCommitted vertex's write set into the index
// (the vertex becomes a proper ancestor of the flow's next vertex), if the
// index is current; otherwise the next refreshVis rebuild covers v. Called
// by the owner at sub-transaction boundaries, holding top.mu exclusively;
// v's writes are frozen at that point so reading them unlocked is safe.
func (tx *Tx) absorbWrites(v *vertex) {
	if tx.visGen != tx.top.pathGen.Load() {
		return
	}
	for b, we := range v.writes.All() {
		tx.vis.Put(b, we)
	}
}

// System returns the engine this transaction runs on.
func (tx *Tx) System() *System { return tx.top.sys }

// Flow returns the logical thread-of-control id of this handle (0 for the
// main flow of the top-level transaction, a positive id per future body).
func (tx *Tx) Flow() int { return tx.cur.flow }

// checkAlive aborts the current flow (by unwinding to the retry loop) when
// the top-level transaction has been aborted by a concurrent event, e.g. an
// SO continuation conflict detected by a future. It is kept out of line so
// its panic path is not copied into Read, Write, Submit and Evaluate.
//
//go:noinline
func (tx *Tx) checkAlive() {
	if tx.top.aborted.Load() {
		panic(&retrySignal{cause: tx.top.abortCause()})
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

// await blocks on ch, unwinding on a transaction abort. Under a scheduler
// hook the abort is checked first.
func (tx *Tx) await(ch <-chan struct{}) {
	top := tx.top
	if waitAny(top.sys.opts.Hook, top.abortChan(), ch, nil) == 0 {
		panic(&retrySignal{cause: top.abortCause()})
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

	// cur's sets are touched only by this flow while cur is active, so the
	// own-vertex probes take no lock, and the entry a miss adds stays put
	// until this flow next adds to cur.reads (DESIGN §9).
	if slot, ok := cur.writes.Slot(b); ok {
		return cur.writes.At(slot).val
	}
	slot, ok := cur.reads.Slot(b)
	if ok {
		return cur.reads.At(slot).val
	}
	// A first read resolves straight into its read-set entry: returned by
	// value and then stored, its 40-byte observation was reloaded whole from
	// piecewise stores, a stall that took a third of the read (DESIGN §9).
	obs := cur.reads.Add(slot, b)

	// Ancestor resolution, lock-free fast path. Every proper ancestor is
	// iCommitted and so frozen: when the flow's visible-write index is
	// current (built at the present path generation), one index probe or a
	// lock-free snapshot read resolves the read. The box is published
	// (vertex.publish) before gver is checked again. If no mutation epoch
	// overlapped [s, recheck], no pathGen bump did either (every bump is
	// inside one), so the index was current, and every later validator,
	// which bumps gver before it scans, sees the published box. If an epoch
	// did overlap, the box stays published: a validator that saw it counted
	// a read that did happen before it, so at most it refuses a merge that
	// read would contradict. The slow path then resolves afresh into the
	// same entry and publishes the box again.
	if s := top.gver.Load(); s&1 == 0 && tx.visGen == top.pathGen.Load() {
		tx.resolveInto(obs, b)
		cur.publish(b)
		if top.gver.Load() == s {
			tx.recordRead(cur, b, obs)
			return obs.val
		}
	}

	top.mu.RLock()
	tx.refreshVis()
	tx.resolveInto(obs, b)
	cur.publish(b)
	top.mu.RUnlock()
	tx.recordRead(cur, b, obs)
	return obs.val
}

// resolveInto fills obs with what a first read of b in the flow's current
// vertex observes: the nearest iCommitted ancestor's write (the index,
// which must be current), or else the version at the top-level snapshot.
func (tx *Tx) resolveInto(obs *readObs, b *mvstm.VBox) {
	if slot, ok := tx.vis.Slot(b); ok {
		we := tx.vis.At(slot)
		*obs = readObs{val: we.val, flow: int32(we.flow), wid: we.wid}
		return
	}
	ver := b.ReadAt(tx.top.snap)
	*obs = readObs{val: ver.Value, ver: ver}
}

// recordRead emits a history op for a first read, when recording is on. The
// observation tag is formatted with strconv on a stack buffer: fmt.Sprintf's
// interface boxing and verb parsing showed up in read-path profiles even
// though recording is off on the benchmark configurations that exercise it.
func (tx *Tx) recordRead(cur *vertex, b *mvstm.VBox, obs *readObs) {
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
	tx.cur.addWrite(b, writeEntry{val: v, wid: wid, flow: tx.cur.flow})
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
	if top.serialSubmit {
		// Fork-join submission: the continuation would wait for f to settle,
		// so it runs f itself and no worker is woken for it.
		f.runUnclaimed()
		return f
	}
	sys.publish(f)
	return f
}

// spawnLocked is Submit's graph mutation: the caller's vertex iCommits, the
// future's first vertex and the continuation vertex hang off it, and the
// future is registered with its body's Tx handle. Caller holds top.mu
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
		sys:        sys,
		att:        top.att,
		top:        top,
		id:         len(top.futures) + 1,
		flow:       fv.flow,
		body:       body,
		vertex:     fv,
		cont:       cv,
		prevInFlow: tx.lastFut,
	}
	fv.fut = f
	// The arena hands out the body's Tx here, under the graph lock; its
	// visible-write index builds lazily on the body's first
	// ancestor-resolving read.
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
