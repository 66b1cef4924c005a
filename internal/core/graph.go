package core

import (
	"sync"
	"sync/atomic"

	"wtftm/internal/history"
	"wtftm/internal/mvstm"
)

// vstatus is the lifecycle state of a sub-transaction vertex in G.
type vstatus int

const (
	// vActive: the owning flow is still executing inside this vertex.
	vActive vstatus = iota
	// vCompleted: a future body finished but could not serialize at
	// submission; its updates stay invisible until evaluation ("completed
	// but not iCommitted" in §4.1).
	vCompleted
	// vICommitted: the vertex's updates are visible to the sub-transactions
	// serialized after it within the same top-level transaction.
	vICommitted
	// vRemoved: the vertex was merged away when its future serialized.
	vRemoved
)

// readObs describes the source a read observed. Exactly one of ver (a
// committed version, read from the top-level snapshot) or {flow, wid} (an
// uncommitted write of a sub-transaction) identifies the origin.
type readObs struct {
	val  any
	ver  *mvstm.Version // non-nil: observed a committed version
	flow int            // origin flow of the observed sub-transaction write
	wid  int64          // unique id of the observed sub-transaction write
}

// writeEntry is one buffered write held by a vertex. Merges preserve the
// origin flow and write id so GAC detach records can resolve what a
// detached future actually observed.
type writeEntry struct {
	val  any
	wid  int64
	flow int
}

// vertex is a node of the per-top-level-transaction graph G: one
// sub-transaction, delimited by submit/evaluate boundaries. Vertices are
// arena memory (pool.go): reset and reused by a later attempt once this one
// is quiescent.
type vertex struct {
	id   int
	flow int // logical thread of control (0 = main flow, one per future)
	top  *topTx

	// Topology, guarded by top.mu. pred is the unique predecessor (the
	// construction never creates backward bifurcations — see footnote 1 of
	// the paper); next is the same-flow successor, linking a future's chain.
	pred   *vertex
	next   *vertex
	succs  []*vertex
	status vstatus

	// mark is the traversal epoch that last visited the vertex (see
	// topTx.nextEpoch): "seen" in the forward scan, "in this chain" in merge
	// and discard. Guarded by top.mu held exclusively.
	mark uint64

	// Data sets, guarded by vmu (they are read by validators while the
	// owning flow appends). readSum/writeSum are Bloom summaries of the box
	// fingerprints in the corresponding set: bits are only ever added (the
	// read fast path's retraction leaves its bit set — a false positive at
	// worst), so a zero AND against a query summary proves the set disjoint
	// and lets validators skip the vertex without taking vmu. They are
	// written under vmu and loaded atomically: a lock-free reader publishes
	// its bit before it re-checks the graph epoch and a validator bumps the
	// epoch before it loads, so one of the two always notices the other.
	vmu      sync.Mutex
	reads    iset[readObs]
	writes   iset[writeEntry]
	readSum  atomic.Uint64
	writeSum atomic.Uint64

	// segment is the AtomicSegments segment this vertex belongs to
	// (inherited from pred; re-stamped at segment boundaries).
	segment int

	// fut is non-nil on the first vertex of a future body.
	fut *Future
}

func (v *vertex) removed() bool { return v.status == vRemoved }

// addRead records a first read of b. Caller holds v.vmu.
func (v *vertex) addRead(b *mvstm.VBox, obs readObs) {
	v.reads.put(b, obs)
	if s := v.readSum.Load(); s|b.Summary() != s {
		v.readSum.Store(s | b.Summary())
	}
}

// addWrite buffers a write of b. Caller holds v.vmu.
func (v *vertex) addWrite(b *mvstm.VBox, we writeEntry) {
	v.writes.put(b, we)
	if s := v.writeSum.Load(); s|b.Summary() != s {
		v.writeSum.Store(s | b.Summary())
	}
}

// reset readies a vertex for its arena's next attempt.
func (v *vertex) reset() {
	v.id, v.flow, v.segment = 0, 0, 0
	v.pred, v.next, v.fut = nil, nil, nil
	v.dropSuccs()
	v.status = vActive
	v.mark = 0
	v.reads.reset()
	v.writes.reset()
	v.readSum.Store(0)
	v.writeSum.Store(0)
}

// dropSuccs empties the successor list, keeping its storage.
func (v *vertex) dropSuccs() {
	clear(v.succs)
	v.succs = v.succs[:0]
}

// unlink removes v from its predecessor's successor list.
func (v *vertex) unlink() {
	p := v.pred
	if p == nil {
		return
	}
	for i, s := range p.succs {
		if s == v {
			last := len(p.succs) - 1
			copy(p.succs[i:], p.succs[i+1:])
			p.succs[last] = nil
			p.succs = p.succs[:last]
			return
		}
	}
}

// newVertex allocates a vertex in flow, linked after pred. Vertices come
// from the attempt's arena (see pool.go); their data sets start inline and
// allocate nothing until they spill. Caller holds top.mu.
func (t *topTx) newVertex(flow int, pred *vertex) *vertex {
	v := t.allocVertex()
	v.id = t.nverts
	v.flow = flow
	v.pred = pred
	if pred != nil {
		v.segment = pred.segment
		pred.succs = append(pred.succs, v)
		if pred.flow == flow {
			pred.next = v
		}
	}
	return v
}

// nextEpoch opens a fresh traversal epoch: a vertex whose mark equals the
// returned value was visited by (or belongs to the chain of) the traversal
// that opened it. Epochs never repeat within an arena, so a nested traversal
// (discard recursing into a child chain) cannot disturb its caller's marks.
// Caller holds top.mu exclusively.
func (t *topTx) nextEpoch() uint64 {
	t.epoch++
	return t.epoch
}

// chainSums ORs the vertex summaries along the chain rooted at head: a
// superset of the fingerprints of every box the chain read (including reads
// of its own writes, which validation ignores) and wrote. Caller holds
// top.mu.
func chainSums(head *vertex) (rsum, wsum uint64) {
	for c := head; c != nil; c = c.next {
		rsum |= c.readSum.Load()
		wsum |= c.writeSum.Load()
	}
	return rsum, wsum
}

// chainWrote reports whether the chain rooted at head wrote b. The chain is
// complete (its flow finished, and merges into it happen under top.mu), so
// its sets are read without vmu. Caller holds top.mu exclusively.
func chainWrote(head *vertex, b *mvstm.VBox) bool {
	bs := b.Summary()
	for c := head; c != nil; c = c.next {
		if c.writeSum.Load()&bs == bs {
			if _, ok := c.writes.get(b); ok {
				return true
			}
		}
	}
	return false
}

// chainRead reports whether the chain rooted at head read b, not counting
// reads that observed a write originating in flow self (a future re-reading
// its own chain's writes never conflicts with reordering the whole chain).
// Caller holds top.mu exclusively.
func chainRead(head *vertex, b *mvstm.VBox, self int) bool {
	bs := b.Summary()
	for c := head; c != nil; c = c.next {
		if c.readSum.Load()&bs == bs {
			if obs, ok := c.reads.get(b); ok && (obs.ver != nil || obs.flow != self) {
				return true
			}
		}
	}
	return false
}

// forwardConflicts reports whether any vertex forward-reachable from start
// (inclusive) read a box written by the chain rooted at head, whose write
// summary is wsum. skip, when non-nil, prunes the subtree rooted at it (the
// validated future's own chain, whose self-reads never conflict with
// relocating the whole chain). This is the paper's forward validation:
// serializing a future at its submission point is safe only if no
// sub-transaction ordered after its continuation observed state the future
// is about to overwrite.
//
// Summaries come first: a visited vertex whose read summary shares no bit
// with wsum is passed without taking its lock or touching a set, so a scan
// in which nothing overlaps (every MULTI of disjoint per-shard futures)
// materialises nothing. Caller holds top.mu exclusively.
func (t *topTx) forwardConflicts(start, head *vertex, wsum uint64, skip *vertex) bool {
	if wsum == 0 {
		return false
	}
	ep := t.nextEpoch()
	start.mark = ep
	stack := append(t.stack[:0], start)
	hit := false
	for len(stack) > 0 && !hit {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.removed() || v == skip {
			continue
		}
		// Disjoint summaries prove the vertex read none of the boxes; only
		// scan on a (possibly false-positive) overlap.
		if v.readSum.Load()&wsum != 0 {
			v.vmu.Lock()
			for b := range v.reads.all() {
				if chainWrote(head, b) {
					hit = true
					break
				}
			}
			v.vmu.Unlock()
		}
		for _, s := range v.succs {
			if s.mark != ep {
				s.mark = ep
				stack = append(stack, s)
			}
		}
	}
	t.stack = stack[:0]
	return hit
}

// backwardConflicts walks the unique predecessor path from `from` back to
// (but excluding) the spawner vertex `until`, and reports whether any vertex
// on it wrote a box the chain rooted at head read (rsum is the chain's read
// summary, self its flow). This is the paper's backward validation: those
// sub-transactions executed concurrently with the future and their writes
// were invisible to it, so the future may only be reordered after them if it
// read none of what they wrote. The second result is false if `until` is not
// an ancestor of `from` (a structurally invalid evaluation; the caller must
// re-execute). Caller holds top.mu exclusively.
func backwardConflicts(from, until, head *vertex, rsum uint64, self int) (conflict, ok bool) {
	for v := from; v != nil; v = v.pred {
		if v == until {
			return false, true
		}
		if v.writeSum.Load()&rsum == 0 {
			continue
		}
		v.vmu.Lock()
		hit := false
		for b := range v.writes.all() {
			if chainRead(head, b, self) {
				hit = true
				break
			}
		}
		v.vmu.Unlock()
		if hit {
			return true, true
		}
	}
	return false, false
}

// mergeChain serializes the (completed) chain rooted at head into target:
// the chain's writes fold into target's write set in chain order, its reads
// fold into target's read set (preserving them for later validations) and
// into the top-level validation set, its vertices are removed, and any
// non-chain children (futures the chain spawned that are still pending) are
// re-rooted onto target.
//
// Re-rooting relocates a pending child future in G: the writes that are
// logically ordered between the child's observation point and its new
// position — the chain's own writes after the child's spawn, plus (when
// merging at an evaluation point) the writes on the path from the spawner to
// the evaluation point — are accumulated into the child's extraPathWrites,
// which both of the child's validations consult. evalFrom is nil when
// serializing at the submission point, or the evaluating vertex when
// serializing at an evaluation point. Caller holds top.mu exclusively.
func (t *topTx) mergeChain(head, target *vertex, evalFrom *vertex) {
	ep := t.nextEpoch()
	cs := t.chainBuf[:0]
	for c := head; c != nil; c = c.next {
		c.mark = ep
		cs = append(cs, c)
	}
	t.chainBuf = cs

	// Pending children (futures the chain spawned that have not serialized)
	// are re-rooted onto target, last chain vertex first. A child spawned by
	// cs[i] first inherits the writes of cs[i+1:] — the chain suffix after
	// its spawn — and, when relocating forward to an evaluation point, the
	// writes between the chain's old position and its new one. Every path is
	// walked before any child moves.
	pending := func(yield func(i int, child *vertex) bool) {
		for i := len(cs) - 1; i >= 0; i-- {
			for _, child := range cs[i].succs {
				if child.mark != ep && !child.removed() && !yield(i, child) {
					return
				}
			}
		}
	}
	for i, child := range pending {
		if f := child.fut; f != nil {
			for _, s := range cs[i+1:] {
				f.addExtraPathWrites(s)
			}
			for v := evalFrom; v != nil && v != head.pred; v = v.pred {
				f.addExtraPathWrites(v)
			}
		}
	}
	for _, child := range pending {
		child.pred = target
		target.succs = append(target.succs, child)
		if f := child.fut; f != nil && f.cont != nil && f.cont.mark == ep {
			f.cont = target
		}
	}

	// Fold the chain into target in chain order (later writes win). The
	// chain's snapshot reads go straight into the substrate transaction's
	// read set — the top-level validation set — unless the main chain was
	// already folded (or the attempt aborted), after which nothing consumes
	// them and the substrate transaction is no longer ours to touch.
	note := !t.phaseAtLeast(phaseFolding)
	for _, c := range cs {
		c.vmu.Lock()
		target.vmu.Lock()
		for b, we := range c.writes.all() {
			target.writes.put(b, we)
		}
		for b, obs := range c.reads.all() {
			if _, ok := target.reads.get(b); !ok {
				target.reads.put(b, obs)
			}
			if obs.ver != nil && note {
				t.txn.NoteRead(b)
			}
		}
		// The folded sets are supersets of nothing beyond the union, so the
		// vertex summaries OR in directly.
		target.readSum.Store(target.readSum.Load() | c.readSum.Load())
		target.writeSum.Store(target.writeSum.Load() | c.writeSum.Load())
		target.vmu.Unlock()
		c.vmu.Unlock()
		c.status = vRemoved
		c.dropSuccs()
	}
	head.unlink()
	t.pushMergePatch(head, target, evalFrom)
}

// pushMergePatch propagates a merge to the visible-write indexes of the
// flows it affects: those whose current vertex has target as a proper
// ancestor. A submission-point merge leaves the graph's shape around the
// chain unchanged (target is the chain's old predecessor), so affected flows
// receive the write patch directly — unless a vertex strictly between their
// current vertex and target wrote one of the patched boxes, in which case
// the nearer write must keep precedence and the index is rebuilt instead.
// An evaluation-point merge relocates re-rooted children onto a genuinely
// different ancestor path, so every affected flow is invalidated. The
// evaluating flow's own vertex IS target (never a proper ancestor of
// itself): it updates its index at its boundary via absorbWrites.
//
// The patch (the merged chain's writes, later chain vertices winning) is
// only materialised for a flow that will fold it: one with a built, clean
// index and no nearer write. head's chain still holds its sets after the
// fold. Caller holds top.mu exclusively.
func (t *topTx) pushMergePatch(head, target, evalFrom *vertex) {
	_, wsum := chainSums(head)
	var patch map[*mvstm.VBox]writeEntry
	for _, ftx := range t.flows {
		c := ftx.cur
		if c == target {
			continue
		}
		anc, blocked := false, false
		for v := c.pred; v != nil; v = v.pred {
			if v == target {
				anc = true
				break
			}
			if !blocked && v.writeSum.Load()&wsum != 0 {
				v.vmu.Lock()
				for b := range v.writes.all() {
					if chainWrote(head, b) {
						blocked = true
						break
					}
				}
				v.vmu.Unlock()
			}
		}
		if !anc {
			continue
		}
		if evalFrom != nil || blocked {
			ftx.markDirtyLocked()
			continue
		}
		if wsum == 0 || !ftx.visBuilt || ftx.visDirty {
			// Nothing to fold, or the index is unbuilt / already awaiting a
			// full rebuild: the next refreshVis covers it.
			continue
		}
		if patch == nil {
			patch = make(map[*mvstm.VBox]writeEntry)
			for c := head; c != nil; c = c.next {
				for b, we := range c.writes.all() {
					patch[b] = we
				}
			}
		}
		ftx.pending = append(ftx.pending, patch)
		ftx.visOK.Store(false)
	}
}

// discardChain removes the chain rooted at head without folding its writes
// (used for user-aborted futures and for stale executions about to be
// re-run). Pending child futures spawned by the chain are invalidated: they
// can never serialize, so their eventual evaluation re-executes them.
// Caller holds top.mu exclusively.
func (t *topTx) discardChain(head *vertex) {
	head.unlink()
	t.discardSubtree(head)
	// Removed vertices may still be index sources for flows that descended
	// them, and the discarded writes vanish without a fold: invalidate every
	// flow's visible-write index.
	for _, ftx := range t.flows {
		ftx.markDirtyLocked()
	}
}

// discardSubtree removes the chain rooted at head and, recursively, every
// pending chain hanging off it. head is already unlinked from its
// predecessor (or the predecessor is itself being discarded).
func (t *topTx) discardSubtree(head *vertex) {
	ep := t.nextEpoch()
	for c := head; c != nil; c = c.next {
		c.mark = ep
	}
	for c := head; c != nil; c = c.next {
		for _, child := range c.succs {
			if child.mark == ep || child.removed() {
				continue
			}
			if child.fut != nil {
				child.fut.invalidate()
				t.sys.record(history.Op{Top: t.id, Flow: child.flow, Kind: history.FutureAbort, Arg: child.fut.name()})
			}
			t.discardSubtree(child)
		}
		c.status = vRemoved
		c.dropSuccs()
	}
}
