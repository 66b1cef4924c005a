package core

import (
	"errors"
	"iter"
	"sync"
	"sync/atomic"

	"wtftm/internal/history"
	"wtftm/internal/mutant"
	"wtftm/internal/mvstm"
	"wtftm/internal/sched"
)

// phase tracks how far a top-level transaction has progressed; futures use
// it to decide whether serializing at submission is still possible.
type phase = int32

const (
	phaseRunning phase = iota // body executing
	phaseResolve              // commit started: resolving futures
	phaseFolding              // folding the chain write set; no more merges
	phaseDone                 // committed or aborted
)

// topTx is one attempt of a top-level transaction, and the arena its graph
// lives in (pool.go): every retry takes a wiped topTx, so futures of an
// aborted attempt are permanently stale. The fields above topState are
// storage that survives from attempt to attempt; topState is the attempt
// itself and is zeroed when the arena retires.
type topTx struct {
	sys *System

	// mu guards the graph G (topology, statuses, the future registry).
	mu sync.RWMutex

	// verts[:nverts] and txs[:ntxs] are the vertices and Tx handles handed
	// out to this attempt; the slices' tails are spares from earlier ones.
	verts  []*vertex
	nverts int
	txs    []*Tx
	ntxs   int

	futures []*Future

	// Scratch of the validators and merges, which run under mu held
	// exclusively and so one at a time: the forward scan's DFS stack, the
	// chain being merged, and the traversal epoch (graph.go).
	stack    []*vertex
	chainBuf []*vertex
	epoch    uint64

	// errReads: snapshot reads of discarded chains whose body returned an
	// error (keepErrorReads), validated at commit with the main chain's.
	errReads []*mvstm.VBox

	topState
}

type topState struct {
	id   int64
	txn  *mvstm.Txn
	snap int64

	// gver is the graph's seqlock epoch: lockG bumps it to odd on entry to
	// every exclusive section and unlockG bumps it back to even, so a
	// lock-free reader that observes the same even value before and after
	// its lookups has seen a quiescent graph (the counter is monotonic
	// within an attempt, so there is no ABA).
	gver atomic.Int64
	// pathGen is the attempt's path generation: mergeChain and discardChain,
	// the only mutations that change what some flow's ancestors wrote, bump
	// it inside their lockG section. A flow's visible-write index is current
	// iff it was built at the present generation (Tx.visGen, DESIGN §9).
	pathGen atomic.Int64
	root    *vertex
	flowSeq int

	// mainTx is the Tx handle of the main flow; commit folds from its
	// current vertex.
	mainTx *Tx

	// att is the attempt's outcome record for Future handles, created with
	// the first Submit (always on the main flow, before any concurrency).
	att *attempt

	// serialSubmit makes Submit wait for each future to settle before the
	// continuation proceeds (fork-join degradation after an SO conflict).
	serialSubmit bool

	phase    atomic.Int32
	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortErr error

	// refs counts the flows that may still touch the arena: the main flow,
	// from newTop until it leaves commit or abort, and every submitted
	// future that has not settled. Only an unsettled flow can submit, so a
	// count the main flow observes at one is stable. The flow that drops it
	// to zero retires the arena. unpin, when set, releases the snapshot the
	// commit kept readable for futures still running past it (GAC); keep
	// marks an arena that must not be recycled (see pool.go).
	refs  atomic.Int32
	unpin func()
	keep  bool

	// commitTS is the timestamp the attempt's commit installed its writes
	// at (0 if it wrote nothing); escapees judge their reads of its
	// sub-transaction writes by it (readHolds).
	commitTS int64

	// Escaped futures of *other* transactions claimed by this one; they are
	// finalized on commit and released on abort. Guarded by mu.
	claims []*Future
}

func (s *System) newTop() *topTx {
	s.yield(sched.PointTopBegin, "")
	txn := s.stm.Begin()
	t := s.getTop()
	t.id = s.topSeq.Add(1)
	t.txn = txn
	t.snap = txn.Snapshot()
	t.refs.Store(1)
	t.root = t.newVertex(0, nil)
	t.mainTx = t.newTx(t.root) // pre-concurrency: no lock needed yet
	s.record(history.Op{Top: t.id, Flow: 0, Kind: history.TopBegin})
	return t
}

func (t *topTx) nextFlow() int { t.flowSeq++; return t.flowSeq }

// lockG opens an exclusive graph mutation epoch: the seqlock counter goes
// odd BEFORE any validation scan or mutation inside the section, so a
// lock-free reader racing with the section always observes the epoch (see
// Tx.Read). unlockG closes it. Every t.mu.Lock in the package goes through
// this pair.
func (t *topTx) lockG() {
	t.mu.Lock()
	t.gver.Add(1)
}

func (t *topTx) unlockG() {
	t.gver.Add(1)
	t.mu.Unlock()
}

func (t *topTx) phaseAtLeast(p phase) bool { return t.phase.Load() >= p }

func (t *topTx) abortCause() error {
	t.abortMu.Lock()
	defer t.abortMu.Unlock()
	if t.abortErr != nil {
		return t.abortErr
	}
	return errors.New("core: top-level transaction aborted")
}

// requestAbort marks the transaction aborted (the first cause wins) and
// wakes every waiter. It is safe to call from any flow and never takes t.mu.
func (t *topTx) requestAbort(cause error) {
	t.abortMu.Lock()
	if !t.aborted.Load() {
		t.abortErr = cause
		t.aborted.Store(true)
		if t.att != nil {
			t.att.aborted.fire()
		}
	}
	t.abortMu.Unlock()
}

// abortChan closes when the attempt aborts. Only a future can abort an
// attempt behind its main flow's back, so before the first Submit there is
// nothing to wait for and the channel is nil.
func (t *topTx) abortChan() <-chan struct{} {
	if t.att == nil {
		return nil
	}
	return t.att.aborted.wait()
}

// unref drops one reference on the arena (see refs); the last one retires
// it: the snapshot pin goes, and the arena is recycled unless an escaped
// future may still be evaluated out of it.
func (t *topTx) unref() {
	if t.refs.Add(-1) != 0 {
		return
	}
	if t.unpin != nil {
		t.unpin()
	}
	if !t.keep {
		t.sys.recycle(t)
	}
}

// run executes the user body on the main flow.
func (t *topTx) run(fn func(tx *Tx) (any, error)) (val any, err error) {
	val, err, retry := runBody(fn, t.mainTx)
	if retry != nil {
		return nil, &retryError{cause: retry.cause}
	}
	return val, err
}

// commit drives the top-level commit protocol: resolve outstanding futures
// per the configured semantics, fold the main chain's write set, and commit
// through the MV-STM, which validates the main chain's reads in place.
func (t *topTx) commit() (err error) {
	// Internal aborts signalled by concurrently failing futures unwind the
	// resolution loop via retrySignal panics.
	defer func() {
		if r := recover(); r != nil {
			if rs, ok := r.(*retrySignal); ok {
				err = &retryError{cause: rs.cause}
				return
			}
			panic(r)
		}
	}()

	t.sys.yield(sched.PointCommit, "")
	t.phase.Store(phaseResolve)
	sys := t.sys

	waitAll := sys.opts.Ordering == SO || sys.opts.Atomicity == LAC
	if waitAll {
		// Implicit evaluations may re-execute bodies that submit new
		// futures, so the registry can grow while we drain it. Snapshot the
		// slice once per growth epoch (slice headers are stable; appends
		// under t.mu never mutate the prefix) instead of locking on every
		// iteration.
		var fs []*Future
		for i := 0; ; i++ {
			if i >= len(fs) {
				t.mu.RLock()
				fs = t.futures
				t.mu.RUnlock()
				if i >= len(fs) {
					break
				}
			}
			f := fs[i]

			if sys.opts.Hook != nil || !f.settled.isSet() {
				if waitAny(sys.opts.Hook, f.settled.wait(), t.abortChan(), nil) == 1 {
					return &retryError{cause: t.abortCause()}
				}
			}
			if t.aborted.Load() {
				return &retryError{cause: t.abortCause()}
			}
			if f.getState() == fParked {
				if f.isInvalidated() {
					// Cancelled (its spawning chain was discarded): skip.
					continue
				}
				// WO+LAC: implicitly evaluate the escaping future as the
				// last sub-transaction before commit (§3.3).
				sys.stats.ImplicitEvaluations.Add(1)
				sys.record(history.Op{Top: t.id, Flow: t.mainTx.cur.flow, Kind: history.Evaluate, Arg: f.name() + "/implicit"})
				if _, err := t.mainTx.evaluateLocal(f); err != nil {
					// The future aborted by program decision; its updates are
					// discarded and the top-level transaction proceeds.
					continue
				}
			}
		}
	}
	if t.aborted.Load() {
		return &retryError{cause: t.abortCause()}
	}

	// Fold the main chain's writes into the MV-STM transaction, root first
	// so later writes win. Its reads stay where they are: the substrate
	// commit validates them in place.
	t.lockG()
	t.phase.Store(phaseFolding)
	escaped := 0
	for _, f := range t.futures {
		if st := f.getState(); st == fParked || st == fRunning {
			escaped++
		}
	}
	mainChain := t.chainBuf[:0]
	for v := t.mainTx.cur; v != nil; v = v.pred {
		mainChain = append(mainChain, v)
	}
	t.chainBuf = mainChain
	hasReads := len(t.errReads) > 0
	for i := len(mainChain) - 1; i >= 0; i-- {
		v := mainChain[i]
		if v.reads.Size() > 0 {
			hasReads = true
		}
		for b, we := range v.writes.All() {
			t.txn.Write(b, we.val)
		}
	}
	t.unlockG()

	// Futures still running past this point (GAC) keep reading at the
	// snapshot: pin it until the last of them settles. Pinning through the
	// live Txn is race-free against concurrent commits' version GC: the pin
	// is linked behind the registration in its shard before the commit
	// unlinks it.
	if t.refs.Load() > 1 {
		t.unpin = t.txn.Pin()
	}

	var reads iter.Seq[*mvstm.VBox] // nil: a blind commit skips validation
	if hasReads {
		reads = t.commitReads
	}
	if err := t.txn.CommitValidating(reads); err != nil {
		return err
	}

	t.commitTS = t.txn.CommitTS()
	t.txn.Release()
	t.txn = nil
	t.phase.Store(phaseDone)
	if escaped > 0 {
		// Someone may evaluate the escapees out of this arena at any later
		// time, walking their chains where they lie: it is never recycled.
		t.keep = true
		sys.stats.EscapedFutures.Add(int64(escaped))
	}
	t.endClaims(true)
	if t.att != nil {
		t.att.committed.fire()
	}
	sys.stats.TopCommits.Add(1)
	sys.record(history.Op{Top: t.id, Flow: 0, Kind: history.TopCommit, WID: t.commitTS})
	t.unref()
	return nil
}

// commitReads yields the top-level validation set, possibly with repeats:
// every snapshot read on the main chain, hidden ones included, where its
// vertices hold it, then errReads. The substrate commit walks it on each
// validation pass without the graph lock: from the fold on, no merge
// targets a main-chain vertex, no other flow records into one and nothing
// appends to errReads (DESIGN §9).
func (t *topTx) commitReads(yield func(*mvstm.VBox) bool) {
	cur := t.mainTx.cur
	for v := cur; v != nil; v = v.pred {
		if mutant.Active == mutant.CommitSkipsMergedReads && v.pred == nil && v != cur {
			continue
		}
		for b, obs := range v.reads.All() {
			if obs.atSnapshot() && !yield(b) {
				return
			}
		}
	}
	for _, b := range t.errReads {
		if !yield(b) {
			return
		}
	}
}

// abort discards this attempt: wake all waiters, release claimed escapes,
// drop the MV-STM transaction and the main flow's reference on the arena.
func (t *topTx) abort(cause error) {
	t.requestAbort(cause)
	t.phase.Store(phaseDone)
	t.endClaims(false)
	if txn := t.txn; txn != nil {
		t.txn = nil
		if t.unpin == nil && t.refs.Load() > 1 { // futures still running read at the snapshot
			t.unpin = txn.Pin()
		}
		txn.Discard()
		txn.Release()
	}
	t.sys.record(history.Op{Top: t.id, Flow: 0, Kind: history.TopAbort})
	t.unref()
}

// endClaims ends this attempt's claims on escaped futures of other
// transactions (evaluateForeign): if it committed, the outcome it decided
// for each, a re-execution's if it ran one, becomes final unless the chain
// that held it was discarded; otherwise the next evaluator may claim them.
func (t *topTx) endClaims(committed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range t.claims {
		f.mu.Lock()
		d := f.decided
		if f.final = committed && d != nil && f.at != nil; f.final {
			f.result, f.err = d.res, d.err
		}
		close(f.claimCh)
		f.claimant, f.claimCh, f.decided, f.at = nil, nil, nil, nil // t is arena memory: keep no identity past it
		f.mu.Unlock()
	}
	t.claims = nil
}
