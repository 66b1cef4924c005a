package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"wtftm/internal/history"
	"wtftm/internal/mutant"
	"wtftm/internal/mvstm"
	"wtftm/internal/sched"
)

// futState is the lifecycle state of a Future. Transitions happen under the
// spawning top-level transaction's graph lock (or under f.mu for cross-top
// transitions after that transaction committed).
type futState int32

const (
	// fRunning: the body is executing.
	fRunning futState = iota
	// fParked: the body completed but the future could not serialize at its
	// submission point; it waits, invisible, for an evaluation (WO only).
	fParked
	// fMerged: the future serialized (at submission or evaluation) and its
	// result is final within its enclosing transaction.
	fMerged
	// fReexecuting: a conflicting parked future is being re-executed at an
	// evaluation point.
	fReexecuting
	// fFailed: an SO future whose continuation read its writes; the
	// top-level transaction is aborting.
	fFailed
	// fUserAborted: the body returned a non-nil error (program-requested
	// abort); its updates are discarded.
	fUserAborted
	// fStale: the spawning top-level transaction attempt aborted; the
	// future can never serialize.
	fStale
)

var errSOConflict = errors.New("core: continuation read data written by a strongly ordered future")

// event is a one-shot broadcast. Most events are observed only after they
// fired, or never, so the channel a blocked waiter needs is made by the first
// waiter instead of with the event.
type event struct {
	set atomic.Bool
	mu  sync.Mutex
	ch  chan struct{}
}

// closedCh is what wait returns once an event fired.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func (e *event) isSet() bool { return e.set.Load() }

// fire sets the event and wakes every waiter; later calls do nothing.
func (e *event) fire() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.set.Swap(true) && e.ch != nil {
		close(e.ch)
	}
}

// wait returns a channel that is closed once the event fired.
func (e *event) wait() <-chan struct{} {
	if e.set.Load() {
		return closedCh
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.set.Load() {
		return closedCh
	}
	if e.ch == nil {
		e.ch = make(chan struct{})
	}
	return e.ch
}

// attempt is the part of a top-level attempt that outlives its arena: the
// identity and the outcome that retained Future handles consult from other
// transactions. It is created with the attempt's first Submit — a
// transaction that submits nothing has no handle that could ask.
type attempt struct {
	id        int64
	committed event
	aborted   event
}

// Future is a handle to a transactional future. It is created by Tx.Submit
// and redeemed by Tx.Evaluate. A Future may be evaluated any number of
// times; every evaluation returns the result of the single committed
// execution of the body (§3.2). Handles are ordinary heap values and stay
// valid forever; see pool.go for what they may point at, and until when.
type Future struct {
	sys  *System
	att  *attempt // the spawning attempt's identity and outcome
	id   int
	flow int

	nmOnce sync.Once
	nm     string

	// The handle's view into its attempt's arena, dropped by dropGraph once
	// no evaluation can need it. top is the spawning attempt; vertex is the
	// first vertex of the body's chain and cont the continuation vertex
	// created alongside it; ftx is the body's Tx handle, handed out by the
	// arena at Submit, under top.mu. vertex and cont are guarded by top.mu.
	top    *topTx
	body   func(*Tx) (any, error)
	vertex *vertex
	cont   *vertex
	ftx    *Tx

	// prevInFlow is the previously submitted future of the same spawning
	// flow; under SO semantics this future's merge waits for it (the
	// paper's straggler effect, Fig. 3).
	prevInFlow *Future

	// claimed is set by whoever won the right to run the body (claim).
	claimed atomic.Bool

	// execDone fires when the body's first execution finishes; settled
	// fires when the engine classified that execution (merged, parked,
	// failed, aborted or stale).
	execDone event
	settled  event

	// invalid marks a pending future whose observed ancestor state was
	// discarded (its spawning chain was itself discarded); it must
	// re-execute at evaluation.
	invalid atomic.Bool

	// extraPathWrites accumulates the boxes whose writes are logically
	// ordered between this future's observation point and its current
	// position in G (they arise when the spawning chain merges away and the
	// future is re-rooted). Both validations treat them as concurrent
	// writes. extraSum is the set's Bloom summary. Guarded by top.mu.
	extraPathWrites mvstm.BoxSet[struct{}]
	extraSum        uint64

	state  atomic.Int32
	result any   // body result; final once state is fMerged
	err    error // body error; set with state fUserAborted

	// reexecCh is non-nil while state is fReexecuting and closes when the
	// re-execution finished. Guarded by top.mu.
	reexecCh chan struct{}

	// Cross-top (GAC) evaluation coordination. Guarded by mu. decided is the
	// claimant's outcome once it has one (the escaped execution's if it
	// folded, a re-execution's if not), which becomes result and err only if
	// the claimant commits. at is the claimant's vertex that holds it (the
	// evaluating vertex it folded into, or the inline re-execution's last):
	// moved along by merges, nil once discarded (topTx.moveDecisions); also
	// guarded by the claimant's top.mu.
	mu       sync.Mutex
	claimant *topTx
	claimCh  chan struct{}
	decided  *outcome
	at       *vertex
	final    bool
}

// decide records t's outcome, held by at, as the claimant's, unless t's
// claim already ended (t aborted while a flow of it evaluated). What a flow
// decides after its chain was discarded under it is void (at nil). Caller
// holds t.mu exclusively, then f.mu.
func (f *Future) decide(t *topTx, at *vertex, res any, err error) {
	if f.claimant == t {
		if !attached(at) {
			at = nil
		}
		f.decided, f.at = &outcome{res, err}, at
		f.wake()
	}
}

// wake wakes every flow waiting on claimCh; later ones wait on a fresh one.
// Caller holds f.mu.
func (f *Future) wake() {
	close(f.claimCh)
	f.claimCh = make(chan struct{})
}

// outcome is what one execution of a future's body returned.
type outcome struct {
	res any
	err error
}

// name is the display name ("T<top>.F<id>") history records and scheduler
// yields carry. Only a recorder or a scheduler hook ever reads it, so
// without either it is never built.
func (f *Future) name() string {
	if !f.sys.observed {
		return ""
	}
	f.nmOnce.Do(func() {
		f.nm = "T" + strconv.FormatInt(f.att.id, 10) + ".F" + strconv.Itoa(f.id)
	})
	return f.nm
}

// Done returns a channel that closes when the future's body has finished
// executing. Benchmark harnesses use it to evaluate futures out of order as
// soon as they complete (the WTF-TM-OutOfOrder variant of §5.3).
func (f *Future) Done() <-chan struct{} { return f.execDone.wait() }

// dropGraph lets go of the attempt's arena once the future is in a state no
// evaluation validates, merges or re-executes from: what Evaluate still
// needs (state, result, error, the attempt's outcome) lives in the handle.
// Caller holds top.mu exclusively, or holds the attempt's last reference.
func (f *Future) dropGraph() {
	f.top, f.body, f.vertex, f.cont, f.ftx = nil, nil, nil, nil, nil
	f.extraPathWrites = mvstm.BoxSet[struct{}]{}
}

// addExtraPathWrites accumulates v's writes as relocation writes. Caller
// holds top.mu exclusively.
func (f *Future) addExtraPathWrites(v *vertex) {
	for b := range v.writes.All() {
		f.extraPathWrites.Put(b, struct{}{})
		f.extraSum |= b.Summary()
	}
}

// extraConflict reports whether the future's chain (read summary rsum) read
// a box in extraPathWrites, not counting reads of its own writes. Caller
// holds top.mu exclusively.
func (f *Future) extraConflict(rsum uint64) bool {
	if rsum&f.extraSum == 0 {
		return false
	}
	for c := f.vertex; c != nil; c = c.next {
		if c.readSum.Load()&f.extraSum == 0 {
			continue
		}
		for b, obs := range c.reads.All() {
			if obs.ver == nil && int(obs.flow) == f.flow {
				continue
			}
			if _, ok := f.extraPathWrites.Get(b); ok {
				return true
			}
		}
	}
	return false
}

func (f *Future) getState() futState  { return futState(f.state.Load()) }
func (f *Future) setState(s futState) { f.state.Store(int32(s)) }
func (f *Future) invalidate()         { f.invalid.Store(true) }
func (f *Future) isInvalidated() bool { return f.invalid.Load() }

// claim reports whether the caller won the right to run f's body; exactly
// one caller ever does (see worker.go). A loser must not touch f's arena:
// the winner may settle f and let the attempt retire at any moment. What
// claim itself reads lives in the handle.
func (f *Future) claim() bool {
	if f.claimed.Load() {
		return false
	}
	f.sys.yield(sched.PointClaim, f.name())
	return f.claimed.CompareAndSwap(false, true)
}

// runUnclaimed runs f's body on the calling flow if nobody has claimed it
// yet — under SO the still unclaimed futures submitted before it in its
// flow first, in flow order, since f could not serialize before them
// anyway. It returns how many bodies it ran. A body run here is exactly
// the schedule in which a worker starts it at this instant.
func (f *Future) runUnclaimed() int {
	if f.claimed.Load() {
		return 0
	}
	n := 0
	if p := f.prevInFlow; p != nil && f.sys.opts.Ordering == SO {
		n = p.runUnclaimed()
	}
	if !f.claim() {
		return n
	}
	f.run()
	return n + 1
}

// run executes the body on whichever flow claimed it and then classifies
// the execution (the paper's future commit protocol): it is the one body
// path, whoever runs it. Settling drops the future's reference on its
// attempt; nothing here touches the arena after.
func (f *Future) run() {
	sys, top := f.sys, f.top
	tx := f.ftx
	sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureBegin, Arg: f.name()})
	res, err, retry := runBody(f.body, tx)
	f.execDone.fire()
	defer func() {
		f.settled.fire()
		top.unref()
	}()
	sys.yield(sched.PointFutureSettle, f.name())

	if retry != nil || top.aborted.Load() {
		f.setState(fStale)
		return
	}
	if err != nil {
		top.lockG()
		top.keepErrorReads(f.vertex, f.flow, nil)
		top.discardChain(f.vertex)
		f.err = err
		f.setState(fUserAborted)
		if !top.phaseAtLeast(phaseFolding) {
			// Past the fold the future escaped: its evaluators judge the
			// reads behind its error on the chain.
			f.dropGraph()
		}
		top.unlockG()
		sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureAbort, Arg: f.name()})
		return
	}

	// Under SO semantics futures serialize at submission in submission
	// order within their flow: wait for the previous sibling to settle so a
	// straggler stalls its successors, exactly as in JTF.
	if sys.opts.Ordering == SO {
		if p := f.prevInFlow; p != nil {
			if waitAny(sys.opts.Hook, p.settled.wait(), top.abortChan(), nil) == 1 {
				f.setState(fStale)
				return
			}
		}
	}

	top.lockG()
	defer top.unlockG()
	if top.aborted.Load() {
		f.setState(fStale)
		return
	}
	if top.phaseAtLeast(phaseFolding) {
		// The top-level transaction is already folding its write set (GAC):
		// this future can no longer serialize at submission and must escape.
		f.result = res
		f.setState(fParked)
		return
	}
	if f.isInvalidated() || f.vertex.removed() {
		// The spawning chain was discarded: this execution is cancelled and
		// can never serialize.
		f.setState(fParked)
		return
	}
	f.result = res
	rsum, wsum := chainSums(f.vertex)
	canMergeAtSubmission := !top.forwardConflicts(f.cont, f.vertex, wsum, f.vertex) &&
		!f.extraConflict(rsum)
	if canMergeAtSubmission {
		top.mergeChain(f.vertex, f.vertex.pred, nil)
		f.setState(fMerged)
		f.dropGraph()
		sys.stats.MergedAtSubmission.Add(1)
		sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureMerge, Arg: "submission"})
		return
	}
	if sys.opts.Ordering == SO {
		// A continuation sub-transaction observed state this future is about
		// to overwrite: under SO the continuation must abort. Go has no
		// first-class continuations to restart just the continuation, as JTF
		// does, so the whole transaction retries (see DESIGN.md,
		// substitutions).
		f.setState(fFailed)
		sys.stats.TopInternal.Add(1)
		top.requestAbort(errSOConflict)
		return
	}
	f.setState(fParked)
}

// runBody executes a transaction body, converting the package's control-flow
// panics back into values. Arbitrary panics from user code are captured as
// errors so a failing future aborts instead of crashing the process.
func runBody(body func(*Tx) (any, error), tx *Tx) (res any, err error, retry *retrySignal) {
	defer func() {
		r := recover()
		switch r := r.(type) {
		case nil:
		case *retrySignal:
			retry = r
		case *userAbort:
			err = r.err
		default:
			err = fmt.Errorf("core: transaction body panicked: %v", r)
		}
	}()
	res, err = body(tx)
	return
}

// evaluateLocal implements Evaluate for a future of the caller's own
// top-level transaction. A body nobody has started yet runs here, on the
// evaluating flow, instead of making it wait for a worker.
func (tx *Tx) evaluateLocal(f *Future) (any, error) {
	top := tx.top
	if mutant.Active == mutant.ClaimAtEvaluation && f.claim() {
		tx.shortcutAtEvaluation(f)
	} else if n := f.runUnclaimed(); n > 0 {
		top.sys.stats.ClaimedAtEvaluation.Add(int64(n))
	}
	for {
		tx.awaitSettled(f)
		top.lockG()
		if top.aborted.Load() {
			top.unlockG()
			panic(&retrySignal{cause: top.abortCause()})
		}
		switch f.getState() {
		case fUserAborted:
			if f.top != nil {
				// A sibling escapee that failed after the fold: the reads
				// behind the error join this flow; with no chain left it
				// runs again here.
				if f.vertex == nil {
					return tx.reexecuteLocked(f)
				}
				top.keepErrorReads(f.vertex, f.flow, tx.cur)
				tx.boundaryLocked()
			}
			top.unlockG()
			return nil, f.err

		case fFailed, fStale:
			top.unlockG()
			panic(&retrySignal{cause: errSOConflict})

		case fMerged:
			// Idempotent repeated evaluation: return the memoized result.
			// The evaluation is still a sub-transaction boundary.
			tx.boundaryLocked()
			top.unlockG()
			return f.result, nil

		case fReexecuting:
			ch := f.reexecCh
			top.unlockG()
			tx.await(ch)
			continue

		case fParked:
			if f.isInvalidated() {
				// The future's spawning chain was discarded (e.g. its spawner
				// aborted): it is cancelled and can never serialize.
				top.unlockG()
				return nil, ErrStaleFuture
			}
			{
				rsum, _ := chainSums(f.vertex)
				conflict, ok := backwardConflicts(tx.cur, f.vertex.pred, f.vertex, rsum, f.flow)
				if mutant.Active == mutant.SkipBackwardValidation {
					conflict = false
				}
				if ok && !conflict && !f.extraConflict(rsum) {
					// Serialize at the evaluation point: merge the chain into
					// the evaluator's (iCommitting) sub-transaction.
					cur := tx.cur
					cur.status = vICommitted
					top.mergeChain(f.vertex, cur, cur)
					// The fold just landed the chain's writes in cur, which
					// becomes a proper ancestor of the next vertex.
					tx.absorbWrites(cur)
					next := top.newVertex(cur.flow, cur)
					tx.cur = next
					f.setState(fMerged)
					f.dropGraph()
					f.sys.stats.MergedAtEvaluation.Add(1)
					f.sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureMerge, Arg: "evaluation"})
					top.unlockG()
					return f.result, nil
				}
			}
			// The future read state that concurrent sub-transactions
			// overwrote (or its ancestors were discarded): abort it and
			// re-execute at the evaluation point, where it trivially
			// serializes.
			return tx.reexecuteLocked(f)

		default:
			top.unlockG()
			panic(fmt.Sprintf("core: future T%d.F%d settled in state %d", f.att.id, f.id, f.getState()))
		}
	}
}

// reexecuteLocked discards f's execution and runs its body again as an
// inline sub-transaction at the caller's evaluation point, where it
// trivially serializes. Caller holds top.mu exclusively; it is released.
func (tx *Tx) reexecuteLocked(f *Future) (any, error) {
	top := tx.top
	f.setState(fReexecuting)
	f.reexecCh = make(chan struct{})
	if f.vertex != nil {
		top.discardChain(f.vertex)
	}
	top.unlockG()

	f.sys.stats.FutureReexecutions.Add(1)
	f.sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureAbort, Arg: f.name()})
	res, err := tx.runInline(f.body, f.name())

	top.lockG()
	if top.phaseAtLeast(phaseFolding) {
		// An escapee re-executed in a sibling, whose chain now holds the
		// reads behind the outcome: a later evaluator runs it again.
		f.vertex, f.cont = nil, nil
	} else {
		f.dropGraph()
	}
	if err != nil {
		f.err = err
		f.setState(fUserAborted)
		f.sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureAbort, Arg: f.name()})
	} else {
		f.result = res
		f.setState(fMerged)
		f.sys.stats.MergedAtEvaluation.Add(1)
		f.sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureMerge, Arg: "evaluation"})
	}
	close(f.reexecCh)
	f.reexecCh = nil
	top.unlockG()
	return res, err
}

// shortcutAtEvaluation is the ClaimAtEvaluation mutant: a body its
// evaluator claimed skips Future.run and takes WO's re-execution path — the
// submission-vertex view, forward validation and the SO in-flow wait all
// skipped — so under SO it serializes at its evaluation, a history the
// conformance harness must reject. Only that mutant calls it.
func (tx *Tx) shortcutAtEvaluation(f *Future) {
	top := tx.top
	defer func() {
		f.execDone.fire()
		f.settled.fire()
		top.unref()
	}()
	// On record as an execution that was begun and then discarded, exactly
	// like a WO future that re-executes at its evaluation.
	f.sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureBegin, Arg: f.name()})
	top.lockG()
	tx.reexecuteLocked(f)
}

// boundaryLocked iCommits the current sub-transaction and starts a new one
// in the same flow. Caller holds top.mu exclusively.
func (tx *Tx) boundaryLocked() {
	cur := tx.cur
	cur.status = vICommitted
	tx.absorbWrites(cur)
	tx.cur = tx.top.newVertex(cur.flow, cur)
}

// runInline executes body synchronously as a fresh sub-transaction chain
// positioned at the caller's current point (used to re-execute conflicting
// futures at their evaluation point). On success the chain is left
// iCommitted on the caller's predecessor path; on a body error it is
// discarded.
func (tx *Tx) runInline(body func(*Tx) (any, error), label string) (any, error) {
	top := tx.top
	top.lockG()
	cur := tx.cur
	cur.status = vICommitted
	rv := top.newVertex(top.nextFlow(), cur)
	// Splice the inline chain into the evaluator's same-flow chain links so
	// that, if the evaluator is itself a future, its eventual merge folds
	// the re-execution's effects too (chain() follows next pointers).
	cur.next = rv
	sub := top.newTx(rv)
	top.unlockG()

	f := top.sys
	f.record(history.Op{Top: top.id, Flow: rv.flow, Kind: history.FutureBegin, Arg: label})
	res, err, retry := runBody(body, sub)
	if retry != nil {
		panic(retry)
	}

	top.lockG()
	if err != nil {
		top.keepErrorReads(rv, rv.flow, cur)
		top.discardChain(rv)
		tx.cur = top.newVertex(cur.flow, cur) // also re-points cur.next
	} else {
		tail := sub.cur
		tail.status = vICommitted
		next := top.newVertex(cur.flow, tail)
		tail.next = next // cross-flow chain splice (see above)
		tx.cur = next
		// The inline chain now sits on this flow's ancestor path: adopt the
		// sub-handle's index (visible at tail) with its stamp, plus tail's
		// own writes if it is current. Swapped, not shared: both handles are
		// arena memory and keep their index storage for the next attempt.
		tx.vis, sub.vis = sub.vis, tx.vis
		tx.visGen, sub.visGen = sub.visGen, -1
		tx.absorbWrites(tail)
	}
	top.unlockG()
	return res, err
}
