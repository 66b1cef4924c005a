package core

import (
	"errors"
	"fmt"

	"wtftm/internal/history"
)

// This file implements segmented top-level transactions: AtomicSegments runs
// a body expressed as an ordered list of closures ("segments") and, under SO
// semantics, recovers from a continuation conflict by re-executing only the
// segments from the conflicting future's submission point onward — the
// partial continuation rollback JTF obtains from JVM first-class
// continuations (§2), recovered here by making the replay unit explicit.
// Everything committed behaves exactly like Atomic with the segment bodies
// concatenated.
//
// Mechanics: main-flow vertices carry the index of the segment that created
// them. When a strongly ordered future fails forward validation, the
// continuation that read its writes lies — by construction — at or after the
// future's submission segment, so the engine requests a rollback to that
// segment instead of aborting the whole transaction. The driver discards the
// main chain's suffix (cancelling the futures those segments submitted,
// including the failed one) and replays the segments. Two consecutive
// rollbacks of the same segment escalate that replay to fork-join submission
// so progress is guaranteed.

// ErrNoSegments is returned by AtomicSegments when called without segments.
var ErrNoSegments = errors.New("core: AtomicSegments requires at least one segment")

// segSignal unwinds the main flow to the segment driver.
type segSignal struct {
	to int
}

// segRollbackError carries a rollback request out of the commit path.
type segRollbackError struct {
	to int
}

func (e *segRollbackError) Error() string {
	return fmt.Sprintf("core: rollback to segment %d", e.to)
}

const noRollback = int64(-1)

// requestRollback asks the main flow to unwind to segment `to`. Concurrent
// requests keep the minimum. It never takes t.mu.
func (t *topTx) requestRollback(to int) {
	t.rbMu.Lock()
	if t.rollbackTo == noRollback || int64(to) < t.rollbackTo {
		t.rollbackTo = int64(to)
	}
	if t.rbCh != nil {
		close(t.rbCh)
		t.rbCh = nil
	}
	t.rbMu.Unlock()
}

// rollbackPending returns the requested target segment, or -1.
func (t *topTx) rollbackPending() int64 {
	t.rbMu.Lock()
	defer t.rbMu.Unlock()
	return t.rollbackTo
}

// rollbackChan returns a channel closed at the next rollback request.
func (t *topTx) rollbackChan() <-chan struct{} {
	t.rbMu.Lock()
	defer t.rbMu.Unlock()
	if t.rbCh == nil {
		t.rbCh = make(chan struct{})
	}
	return t.rbCh
}

// clearRollback consumes a handled request.
func (t *topTx) clearRollback() {
	t.rbMu.Lock()
	t.rollbackTo = noRollback
	t.rbMu.Unlock()
}

// AtomicSegments executes the segments, in order, as one top-level
// transaction. Under SO semantics, a continuation conflict re-executes only
// the segments from the conflicting future's submission segment onward;
// under WO it behaves exactly like Atomic over the concatenated segments.
// Segment closures may be re-executed and must therefore be idempotent in
// their captured state (their transactional effects are rolled back by the
// engine). MV-STM commit conflicts still retry the whole transaction, as
// they do for Atomic.
func (s *System) AtomicSegments(segs ...func(tx *Tx) error) error {
	if len(segs) == 0 {
		return ErrNoSegments
	}
	for attempt := 0; ; attempt++ {
		top := s.newTop()
		top.segMode = true
		err := top.runSegments(s, segs)
		if err == nil {
			return nil
		}
		var rerr *retryError
		switch {
		case errors.As(err, &rerr):
			top.abort(rerr.cause)
		case errors.Is(err, ErrConflictSentinel()):
			s.stats.TopConflict.Add(1)
			top.abort(err)
		default:
			top.abort(err)
			return err
		}
		if s.opts.MaxRetries > 0 && attempt+1 >= s.opts.MaxRetries {
			return fmt.Errorf("%w after %d attempts", ErrRetriesExhausted, attempt+1)
		}
	}
}

// runSegments drives one attempt: run segments (replaying rolled-back
// suffixes) and commit.
func (t *topTx) runSegments(s *System, segs []func(tx *Tx) error) error {
	tx := t.mainTx
	lastTarget, repeats := -1, 0

	i := 0
	for i < len(segs) {
		t.lockG()
		t.curSegment = i
		// Begin the segment on a fresh checkpoint vertex (the root stays an
		// empty anchor so any segment can be rolled back).
		tx.boundaryLocked()
		tx.cur.segment = i
		t.unlockG()
		s.record(history.Op{Top: t.id, Flow: 0, Kind: history.SegStart, WID: int64(i)})

		err, to := t.runOneSegment(segs[i], tx)
		switch {
		case to >= 0:
			s.stats.SegmentRollbacks.Add(1)
			if to == lastTarget {
				repeats++
			} else {
				lastTarget, repeats = to, 0
			}
			// Escalate to fork-join submission when the same segment keeps
			// conflicting, guaranteeing progress.
			t.serialSubmit = repeats >= 1
			if err := t.rollbackToSegment(to, tx); err != nil {
				return err
			}
			i = to
			continue
		case err != nil:
			return err
		}
		i++
	}

	err := t.commit()
	var rb *segRollbackError
	if errors.As(err, &rb) {
		// A future settled with a conflict while the commit was resolving:
		// replay from its submission segment.
		s.stats.SegmentRollbacks.Add(1)
		t.serialSubmit = true
		if rerr := t.rollbackToSegment(rb.to, tx); rerr != nil {
			return rerr
		}
		return t.resumeSegments(s, segs, rb.to, tx)
	}
	return err
}

// resumeSegments continues a replay that became necessary during commit.
func (t *topTx) resumeSegments(s *System, segs []func(tx *Tx) error, from int, tx *Tx) error {
	i := from
	for i < len(segs) {
		t.lockG()
		t.curSegment = i
		tx.boundaryLocked()
		tx.cur.segment = i
		t.unlockG()
		s.record(history.Op{Top: t.id, Flow: 0, Kind: history.SegStart, WID: int64(i)})
		err, to := t.runOneSegment(segs[i], tx)
		switch {
		case to >= 0:
			s.stats.SegmentRollbacks.Add(1)
			if rerr := t.rollbackToSegment(to, tx); rerr != nil {
				return rerr
			}
			i = to
			continue
		case err != nil:
			return err
		}
		i++
	}
	err := t.commit()
	var rb *segRollbackError
	if errors.As(err, &rb) {
		s.stats.SegmentRollbacks.Add(1)
		if rerr := t.rollbackToSegment(rb.to, tx); rerr != nil {
			return rerr
		}
		return t.resumeSegments(s, segs, rb.to, tx)
	}
	return err
}

// runOneSegment executes one segment body, translating rollback signals.
// It returns (err, rollbackTarget); target -1 means none.
func (t *topTx) runOneSegment(seg func(tx *Tx) error, tx *Tx) (err error, target int) {
	defer func() {
		r := recover()
		switch r := r.(type) {
		case nil:
		case *segSignal:
			err, target = nil, r.to
			return
		case *retrySignal:
			err, target = &retryError{cause: r.cause}, -1
		case *userAbort:
			err, target = r.err, -1
		default:
			panic(r)
		}
		// A rollback may also have been requested without this flow
		// observing it yet.
		if err == nil && target < 0 {
			if to := t.rollbackPending(); to != noRollback {
				target = int(to)
			}
		}
	}()
	if err := seg(tx); err != nil {
		return err, -1
	}
	return nil, -1
}

// rollbackToSegment discards the main chain's suffix from segment k onward
// (cancelling the futures it submitted) and positions the main flow on a
// fresh vertex. Counted conflicts keep their TopInternal accounting from the
// future side.
func (t *topTx) rollbackToSegment(k int, tx *Tx) error {
	t.lockG()
	defer t.unlockG()
	t.clearRollback()
	if t.aborted.Load() {
		return &retryError{cause: t.abortCause()}
	}
	// Find the suffix head: the earliest main-chain vertex of segment >= k.
	// The root is a pure anchor and is never discarded.
	var head *vertex
	for v := tx.cur; v != nil && v != t.root; v = v.pred {
		if v.flow != 0 {
			// Inline re-execution chains interleave on the main chain; they
			// belong to the segment of their surroundings.
			if v.segment >= k {
				head = v
			}
			continue
		}
		if v.segment >= k {
			head = v
		} else {
			break
		}
	}
	if head == nil {
		// Nothing to discard (conflict raced with an already-finished
		// rollback); continue from a fresh vertex.
		head = tx.cur
	}
	newCur := head.pred
	if newCur == nil {
		newCur = t.root
	}
	t.discardChain(head)
	t.sys.record(history.Op{Top: t.id, Flow: 0, Kind: history.SegRollback, WID: int64(k)})

	// Unwind the SO submission chain of the main flow past the cancelled
	// futures, so replayed futures do not wait on them.
	last := tx.lastFut
	for last != nil && last.submitSegment >= k {
		last = last.prevInFlow
	}
	tx.lastFut = last

	newCur.status = vICommitted
	fresh := t.newVertex(0, newCur)
	fresh.segment = k
	tx.cur = fresh
	return nil
}

// ErrConflictSentinel returns the MV-STM conflict error; indirection keeps
// the mvstm import local to core.go.
func ErrConflictSentinel() error { return errMVConflict }
