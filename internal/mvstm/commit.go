package mvstm

import "sync/atomic"

// The parallel commit pipeline.
//
// The seed implementation serialized every read-write commit behind one
// global mutex. Following the lock-free commit algorithm of JVSTM
// (Fernandes & Cachopo, PPoPP'11), commits instead enqueue a commitRequest
// onto a singly-linked list ordered by clock ticket. Enqueueing decides the
// commit: a request is appended only after its read set validated against
// every version up to its predecessor's ticket, so once the append CAS
// succeeds the transaction is irrevocably committed with timestamp
// ticket = predecessor.ticket + 1.
//
// After enqueueing, every committer *helps*: it walks the list from the
// oldest incomplete request, completing each one (write-back of the
// pre-built versions, version-chain GC, clock publish) in ticket order
// before finishing its own. Completion is idempotent — any number of
// helpers may work on the same request concurrently — so no committer ever
// waits on a suspended peer, and disjoint-footprint commits proceed without
// blocking each other.
//
// Linearization: a commit takes effect when the global clock reaches its
// ticket. The clock is published monotonically, ticket by ticket, only
// after the corresponding request's write-back fully completed, so a
// snapshot at clock value c always observes every write of every request
// with ticket <= c and nothing newer — exactly the first-committer-wins,
// snapshot-isolation semantics of the global-lock implementation.

// commitEntry is one write of a commit request. The Version object is built
// before the request is published and installed (possibly by several helpers,
// idempotently) during completion; it is the canonical version.
type commitEntry struct {
	box *VBox
	ver *Version
}

// commitRequest is one enqueued read-write commit.
type commitRequest struct {
	// ticket is the commit timestamp: predecessor's ticket + 1. It is
	// written before the request is published and immutable afterwards.
	ticket  int64
	entries []commitEntry
	done    atomic.Bool
	next    atomic.Pointer[commitRequest]
}

// lastRequest walks to the current end of the commit list, starting from the
// commitTail hint (which may lag behind).
func (s *STM) lastRequest() *commitRequest {
	r := s.commitTail.Load()
	for {
		n := r.next.Load()
		if n == nil {
			return r
		}
		r = n
	}
}

// helpUpTo completes every request with ticket <= upto.ticket that is not
// yet complete. own marks the caller's request (nil while validating) so
// commits completed on behalf of other transactions can be counted.
func (s *STM) helpUpTo(upto, own *commitRequest) {
	for {
		h := s.commitHead.Load()
		if h.ticket >= upto.ticket {
			return
		}
		n := h.next.Load()
		if n == nil {
			return
		}
		s.complete(n)
		if s.commitHead.CompareAndSwap(h, n) && n != own {
			s.stats.HelpedCommits.Add(1)
		}
	}
}

// complete installs the request's versions, trims the version chains, and
// publishes the clock. It is idempotent and may run in any number of
// goroutines concurrently; it only runs for the oldest incomplete request
// (helpUpTo walks in order), so every earlier ticket is fully written back
// and published before complete(r) starts.
func (s *STM) complete(r *commitRequest) {
	if r.done.Load() {
		return
	}
	// The GC horizon may never exceed the pre-publish clock: a transaction
	// beginning concurrently snapshots at >= r.ticket-1 and must still find
	// a visible version on every box (see activeShards for the full safety
	// argument).
	horizon := s.active.min(r.ticket - 1)
	for i := range r.entries {
		e := &r.entries[i]
		for {
			cur := e.box.head.Load()
			if cur.TS >= r.ticket {
				// Already installed by another helper (a version with
				// TS > r.ticket implies this request completed earlier).
				break
			}
			e.ver.prev.Store(cur)
			if e.box.head.CompareAndSwap(cur, e.ver) {
				break
			}
		}
		// Trim only when the horizon advanced past the last trim; the CAS
		// claims the range so concurrent helpers don't re-walk the chain.
		for {
			old := e.box.trimmedAt.Load()
			if old >= horizon {
				break
			}
			if e.box.trimmedAt.CompareAndSwap(old, horizon) {
				trim(e.ver, horizon)
				break
			}
		}
	}
	// Publish: versions at r.ticket become visible to new snapshots. The
	// clock advances monotonically and only ever to a fully-completed
	// ticket.
	for {
		c := s.clock.Load()
		if c >= r.ticket {
			break
		}
		if s.clock.CompareAndSwap(c, r.ticket) {
			break
		}
	}
	r.done.Store(true)
}

// commitWrites runs the enqueue/validate/help protocol for a read-write
// transaction whose read set is t's own plus the boxes reads yields (nil:
// none). On success t.ts is the commit timestamp.
func (s *STM) commitWrites(t *Txn, reads func(yield func(*VBox) bool)) error {
	var r *commitRequest
	for {
		last := s.lastRequest()
		// Bring the world up to date with the list end, then validate
		// against box heads: with everything <= last.ticket written back and
		// no later request enqueued, head.TS > snap is exactly "a version
		// newer than our snapshot committed before us". Blind writes (empty
		// read set, nil reads) skip both steps and enqueue straight behind
		// any pending peers.
		if t.reads.Size() > 0 || reads != nil {
			s.helpUpTo(last, nil)
			if bad := t.staleIn(reads); bad != nil {
				if last.next.Load() != nil {
					// A request enqueued after `last` may already be writing
					// back; the newer version we saw might belong to it, in
					// which case it is ordered after us. Re-run against the
					// longer list instead of declaring a conflict.
					continue
				}
				if h := s.conflictHook; h != nil {
					h(bad)
				}
				return ErrConflict
			}
		}
		ticket := last.ticket + 1
		if r == nil {
			r = &commitRequest{entries: make([]commitEntry, 0, t.writes.Size())}
			for b, v := range t.writes.All() {
				r.entries = append(r.entries, commitEntry{box: b, ver: &Version{Value: v}})
			}
		}
		// r is unpublished until the CAS below succeeds, so re-stamping the
		// ticket on retry is safe.
		r.ticket = ticket
		for i := range r.entries {
			r.entries[i].ver.TS = ticket
		}
		if last.next.CompareAndSwap(nil, r) {
			break
		}
		// Lost the append race; revalidate against the new predecessor.
	}
	s.commitTail.Store(r) // hint only; stale values are walked past

	// Queue-length high-water mark: how far write-back lags behind enqueue.
	if pending := r.ticket - s.commitHead.Load().ticket; pending > 0 {
		for {
			hwm := s.stats.CommitQueueHWM.Load()
			if pending <= hwm || s.stats.CommitQueueHWM.CompareAndSwap(hwm, pending) {
				break
			}
		}
	}

	s.helpUpTo(r, r)
	t.ts = r.ticket
	return nil
}

// staleIn checks that every box read is still current at the transaction's
// snapshot: no box may carry a committed version newer than it (first
// committer wins). It walks the Txn's own read set, then the boxes reads
// yields (nil: none), and returns the first stale box in that order — the
// box whose newer committed version kills this transaction, for abort
// attribution — or nil. It hands reads the Txn's own yield function: a range
// loop's would be allocated on every pass. The box is not kept in t.stale
// past the call, so a pooled Txn holds no VBox.
func (t *Txn) staleIn(reads func(yield func(*VBox) bool)) *VBox {
	for b := range t.reads.All() {
		if b.head.Load().TS > t.node.snap {
			return b
		}
	}
	if reads == nil {
		return nil
	}
	if t.fresh == nil {
		t.fresh = func(b *VBox) bool {
			if b.head.Load().TS > t.node.snap {
				t.stale = b
				return false
			}
			return true
		}
	}
	reads(t.fresh)
	bad := t.stale
	t.stale = nil
	return bad
}
