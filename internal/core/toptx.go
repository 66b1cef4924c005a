package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"wtftm/internal/history"
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

	// mu guards the graph G (topology, statuses, flow/future registries).
	mu sync.RWMutex

	// verts[:nverts] and txs[:ntxs] are the vertices and Tx handles handed
	// out to this attempt; the slices' tails are spares from earlier ones.
	verts  []*vertex
	nverts int
	txs    []*Tx
	ntxs   int

	// flows registers the live Tx handle of each flow (under mu), so graph
	// mutations can push visible-write-index patches and invalidations to
	// the flows they affect (see tx.go). A flow leaves when its body ends.
	flows   []*Tx
	futures []*Future

	// Scratch of the validators and merges, which run under mu held
	// exclusively and so one at a time: the forward scan's DFS stack, the
	// chain being merged, and the traversal epoch (graph.go).
	stack    []*vertex
	chainBuf []*vertex
	epoch    uint64

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
	gver    atomic.Int64
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

	// Segmented-transaction state (AtomicSegments): segMode enables partial
	// continuation rollback; curSegment is the segment the main flow is
	// executing (under mu); rollbackTo/rbCh carry rollback requests (under
	// rbMu).
	segMode    bool
	curSegment int
	rbMu       sync.Mutex
	rollbackTo int64
	rbCh       chan struct{}

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

	// Commit record, kept only for an attempt that committed with escaped
	// futures; they resolve their observed sub-transaction reads against it.
	installed map[*mvstm.VBox]*mvstm.Version
	finalWID  map[*mvstm.VBox]int64

	// Escaped futures of *other* transactions claimed by this one; they are
	// finalized on commit and released on abort. Guarded by claimMu.
	claimMu sync.Mutex
	claims  []*Future
}

func (s *System) newTop() *topTx {
	s.yield(sched.PointTopBegin, "")
	txn := s.stm.Begin()
	t := s.getTop()
	t.id = s.topSeq.Add(1)
	t.txn = txn
	t.snap = txn.Snapshot()
	t.rollbackTo = noRollback
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
// through the MV-STM.
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
				if waitAny2(sys.opts.Hook, f.settled.wait(), t.abortChan()) == 1 {
					return &retryError{cause: t.abortCause()}
				}
			}
			if t.aborted.Load() {
				return &retryError{cause: t.abortCause()}
			}
			if st := f.getState(); st == fFailed && t.segMode && !f.isInvalidated() {
				// A strongly ordered future conflicted while the commit was
				// resolving: replay from its submission segment. (Cancelled
				// failures were already rolled back and replaced.)
				return &segRollbackError{to: f.submitSegment}
			} else if st == fParked {
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

	// Fold the main chain into the MV-STM transaction, root first so later
	// writes win.
	t.lockG()
	t.phase.Store(phaseFolding)
	escaped := 0
	for _, f := range t.futures {
		if st := f.getState(); st == fParked || st == fRunning {
			escaped++
		}
	}
	if escaped > 0 {
		// The commit record the escapees resolve their reads against.
		t.finalWID = make(map[*mvstm.VBox]int64)
	}
	mainChain := t.chainBuf[:0]
	for v := t.mainTx.cur; v != nil; v = v.pred {
		mainChain = append(mainChain, v)
	}
	t.chainBuf = mainChain
	for i := len(mainChain) - 1; i >= 0; i-- {
		v := mainChain[i]
		v.vmu.Lock()
		for b, obs := range v.reads.all() {
			if obs.ver != nil {
				t.txn.NoteRead(b)
			}
		}
		for b, we := range v.writes.all() {
			t.txn.Write(b, we.val)
			if t.finalWID != nil {
				t.finalWID[b] = we.wid
			}
		}
		v.vmu.Unlock()
	}
	t.unlockG()

	// Futures still running past this point (GAC) keep reading at the
	// snapshot: pin it until the last of them settles. Pinning through the
	// live Txn (rather than STM.Pin by value) is race-free against concurrent
	// commits' version GC: the pin shares the registration's shard entry.
	if t.refs.Load() > 1 {
		t.unpin = t.txn.Pin()
	}

	if err := t.txn.Commit(); err != nil {
		return err
	}

	var commitTS int64
	if escaped > 0 || sys.opts.Recorder != nil {
		t.installed = t.txn.Installed()
		for _, v := range t.installed {
			commitTS = v.TS
			break
		}
	}
	t.txn.Release() // recycled; t.installed is ours, the Txn is dead
	t.txn = nil
	t.phase.Store(phaseDone)
	if escaped > 0 {
		// Someone may evaluate the escapees out of this arena at any later
		// time (buildDetach): it is never recycled.
		t.keep = true
		sys.stats.EscapedFutures.Add(int64(escaped))
	}
	t.finalizeClaims()
	if t.att != nil {
		t.att.committed.fire()
	}
	sys.stats.TopCommits.Add(1)
	sys.record(history.Op{Top: t.id, Flow: 0, Kind: history.TopCommit, WID: commitTS})
	t.unref()
	return nil
}

// abort discards this attempt: wake all waiters, release claimed escapes,
// drop the MV-STM transaction and the main flow's reference on the arena.
func (t *topTx) abort(cause error) {
	t.requestAbort(cause)
	t.phase.Store(phaseDone)
	t.releaseClaims()
	// A straggler's merge notes reads into the substrate transaction under
	// the graph lock (mergeChain); take it away under the same lock.
	t.lockG()
	txn := t.txn
	t.txn = nil
	t.unlockG()
	if txn != nil {
		txn.Discard()
		txn.Release()
	}
	t.sys.record(history.Op{Top: t.id, Flow: 0, Kind: history.TopAbort})
	t.unref()
}

// addClaim registers an escaped future of another transaction that this one
// is evaluating; its result becomes final iff this transaction commits.
func (t *topTx) addClaim(f *Future) {
	t.claimMu.Lock()
	t.claims = append(t.claims, f)
	t.claimMu.Unlock()
}

func (t *topTx) finalizeClaims() {
	t.claimMu.Lock()
	claims := t.claims
	t.claimMu.Unlock()
	for _, f := range claims {
		f.mu.Lock()
		if f.claimant == t {
			f.final = true
			f.claimant = nil // t is arena memory: keep no identity past it
			if f.claimCh != nil {
				close(f.claimCh)
				f.claimCh = nil
			}
		}
		f.mu.Unlock()
	}
}

func (t *topTx) releaseClaims() {
	t.claimMu.Lock()
	claims := t.claims
	t.claims = nil
	t.claimMu.Unlock()
	for _, f := range claims {
		f.mu.Lock()
		if f.claimant == t && !f.final {
			f.claimant = nil
			if f.claimCh != nil {
				close(f.claimCh)
				f.claimCh = nil
			}
		}
		f.mu.Unlock()
	}
}
