package core

import (
	"sync/atomic"

	"wtftm/internal/history"
	"wtftm/internal/mutant"
	"wtftm/internal/mvstm"
)

// vstatus is the lifecycle state of a sub-transaction vertex in G. It is an
// int32 so that it shares a word with vertex.logN.
type vstatus int32

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
// uncommitted write of a sub-transaction) identifies the origin. hidden
// marks one of the second kind that hides a snapshot read (keepRead).
type readObs struct {
	val    any
	ver    *mvstm.Version // non-nil: observed a committed version
	flow   int32          // origin flow of the observed sub-transaction write
	hidden bool
	wid    int64 // unique id of the observed sub-transaction write
}

// writeEntry is one buffered write held by a vertex. Merges preserve the
// origin flow and write id, so a foreign evaluation can tell an escaped
// future's read of its own chain's write from one of its spawner's, and
// match the latter with the main chain's final write of the box
// (readHolds).
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
	logN   atomic.Int32 // the published length of log, below

	// mark is the traversal epoch that last visited the vertex (see
	// topTx.nextEpoch): "seen" in the forward scan, "in this chain" in merge
	// and discard. Guarded by top.mu held exclusively.
	mark uint64

	// Data sets. While the vertex is vActive only its owning flow touches
	// them; after that they change only under top.mu held exclusively
	// (DESIGN §9). Forward validation, the one other reader of an active
	// vertex, scans the boxes publish appended to log[:logN]. readSum and
	// writeSum are Bloom summaries of the sets' boxes, only ever added to,
	// loaded atomically: a lock-free reader publishes its bit before it
	// re-checks the graph epoch and a validator bumps the epoch before it
	// loads, so one of the two always notices the other.
	reads    mvstm.BoxSet[readObs]
	writes   mvstm.BoxSet[writeEntry]
	readSum  atomic.Uint64
	writeSum atomic.Uint64
	log      atomic.Pointer[[]*mvstm.VBox]

	// fut is non-nil on the first vertex of a future body.
	fut *Future
}

func (v *vertex) removed() bool { return v.status == vRemoved }

// attached reports whether no vertex from v back to the root was removed.
// A flow discarded while it runs (discardSubtree) goes on iCommitting its
// own vertices, but the finished chain that was discarded above it stays
// removed, so its vertices are not attached. Caller holds top.mu.
func attached(v *vertex) bool {
	for ; v != nil; v = v.pred {
		if v.removed() {
			return false
		}
	}
	return true
}

// logMin is the length of a vertex's first read log.
const logMin = 16

// publish makes a first read of b visible to forward validation on another
// flow: b goes into log, then its length into logN, then its bits into
// readSum. Entries do not change until the arena retires and a grown log is
// republished whole, so a scan that loads logN, then log, sees every box up
// to that length. The root (top.root: pred is topology, which merges change)
// publishes nothing, as no validator exists before the first Submit, which
// iCommits it. Called by v's owner or under top.mu.Lock.
func (v *vertex) publish(b *mvstm.VBox) {
	if v != v.top.root && mutant.Active != mutant.ReadUnpublished {
		n := int(v.logN.Load())
		l := v.log.Load()
		if l == nil || n == len(*l) {
			grown := make([]*mvstm.VBox, max(2*n, logMin))
			if l != nil {
				copy(grown, *l)
			}
			l = &grown
			v.log.Store(l)
		}
		(*l)[n] = b
		v.logN.Store(int32(n + 1))
	}
	if s := v.readSum.Load(); s|b.Summary() != s {
		v.readSum.Store(s | b.Summary())
	}
}

// addRead records a first read of b, which v.reads.Slot just missed at
// slot: published first, then added. The caller fills in the returned
// entry.
func (v *vertex) addRead(slot int, b *mvstm.VBox) *readObs {
	v.publish(b)
	return v.reads.Add(slot, b)
}

// readBoxes yields the boxes v read, possibly with repeats: those in the log
// while v is active (its owner may be appending to its sets), those of its
// read set otherwise. Caller holds top.mu exclusively.
func (v *vertex) readBoxes(yield func(*mvstm.VBox) bool) {
	if v.status != vActive {
		for b := range v.reads.All() {
			if !yield(b) {
				return
			}
		}
	} else if n := v.logN.Load(); n > 0 {
		for _, b := range (*v.log.Load())[:n] {
			if !yield(b) {
				return
			}
		}
	}
}

// addWrite buffers a write of b. Only v's owner calls it, or a holder of
// top.mu held exclusively.
func (v *vertex) addWrite(b *mvstm.VBox, we writeEntry) {
	v.writes.Put(b, we)
	if s := v.writeSum.Load(); s|b.Summary() != s {
		v.writeSum.Store(s | b.Summary())
	}
}

// reset readies a vertex for its arena's next attempt; the storage of its
// sets is kept against *budget (mvstm.BoxSet.Reset), that of its log against
// *logBudget, charged a slot per box.
func (v *vertex) reset(budget, logBudget *int) {
	v.id, v.flow = 0, 0
	v.pred, v.next, v.fut = nil, nil, nil
	v.dropSuccs()
	v.status = vActive
	v.mark = 0
	v.reads.Reset(budget)
	v.writes.Reset(budget)
	v.readSum.Store(0)
	v.writeSum.Store(0)
	if l := v.log.Load(); l != nil {
		clear((*l)[:v.logN.Load()])
		if len(*l) > *logBudget {
			v.log.Store(nil)
		} else {
			*logBudget -= len(*l)
		}
	}
	v.logN.Store(0)
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
// complete (its flow finished, and merges into it happen under top.mu).
// Caller holds top.mu exclusively.
func chainWrote(head *vertex, b *mvstm.VBox) bool {
	bs := b.Summary()
	for c := head; c != nil; c = c.next {
		if c.writeSum.Load()&bs == bs {
			if _, ok := c.writes.Get(b); ok {
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
			if obs, ok := c.reads.Get(b); ok && (obs.ver != nil || int(obs.flow) != self) {
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
// with wsum is passed without touching a set or log, so a scan
// in which nothing overlaps (futures over disjoint boxes, the
// BenchmarkValidateWide shape) materialises nothing. Caller holds top.mu exclusively.
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
			for b := range v.readBoxes {
				if chainWrote(head, b) {
					hit = true
					break
				}
			}
		}
		for _, s := range v.succs {
			if s.mark != ep && (mutant.Active != mutant.ForwardSkipsFutureChains || s.fut == nil) {
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
		for b := range v.writes.All() {
			if chainRead(head, b, self) {
				return true, true
			}
		}
	}
	return false, false
}

// mergeChain serializes the (completed) chain rooted at head into target:
// the chain's writes fold into target's write set in chain order, its reads
// fold into target's read set (preserving them for later validations and
// for the top-level commit, which validates the main chain's sets in place),
// its vertices are removed, and any non-chain children (futures the chain
// spawned that are still pending) are re-rooted onto target.
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
		if f := child.fut; f != nil && mutant.Active != mutant.MergeDropsPathWrites {
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
	// chain's reads go with it: the top-level commit validates the snapshot
	// reads of whatever vertices form the main chain when it commits, where
	// they sit (commitReads), and keepRead marks the ones a fold hides.
	for _, c := range cs {
		for b, we := range c.writes.All() {
			target.writes.Put(b, we)
		}
		// c is removed below and its read set never read again, so target
		// may take c's storage outright (mvstm.BoxSet.Absorb).
		target.reads.Absorb(&c.reads, keepRead)
		// The folded sets are supersets of nothing beyond the union, so the
		// vertex summaries OR in directly.
		target.readSum.Store(target.readSum.Load() | c.readSum.Load())
		target.writeSum.Store(target.writeSum.Load() | c.writeSum.Load())
		c.status = vRemoved
		c.dropSuccs()
	}
	t.moveDecisions(ep, target)
	head.unlink()
	// Flows below target now see the chain's writes, and re-rooted children
	// a different path: every visible-write index goes stale.
	if mutant.Active != mutant.MergeKeepsGeneration {
		t.pathGen.Add(1)
	}
}

// keepRead is the fold's rule for a box both the target and a chain vertex
// read: the target's observation stays (mvstm.BoxSet.Absorb). If it observed a
// sub-transaction write while the chain's read was at the snapshot (or hid
// one), commit's walk would not see the snapshot read, so the kept entry is
// marked hidden and commit validates the box.
func keepRead(kept, dropped readObs) readObs {
	if kept.ver == nil && (dropped.ver != nil || dropped.hidden) && mutant.Active != mutant.MergeNotesNoHiddenRead {
		kept.hidden = true
	}
	return kept
}

// keepErrorReads keeps the reads behind the error of flow's failed chain
// rooted at head, which is discarded next: the error reaches an evaluator
// and may steer what it commits (DESIGN §9). Before the fold the snapshot
// reads go to errReads, for the top-level commit. From the fold on the
// chain escaped, and its reads other than of its own writes join into, the
// evaluating flow's vertex, to be judged with its chain (readHolds); with
// into nil the chain itself is kept (Future.run). Caller holds top.mu
// exclusively.
func (t *topTx) keepErrorReads(head *vertex, flow int, into *vertex) {
	folded := t.phaseAtLeast(phaseFolding)
	if (folded && into == nil) || mutant.Active == mutant.ErrorDropsChainReads {
		return
	}
	for c := head; c != nil; c = c.next {
		for b, obs := range c.reads.All() {
			if !folded && obs.atSnapshot() {
				t.errReads = append(t.errReads, b)
			} else if folded && (obs.atSnapshot() || int(obs.flow) != flow) {
				if slot, ok := into.reads.Slot(b); !ok {
					*into.addRead(slot, b) = obs
				}
			}
		}
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
	// them: every visible-write index goes stale.
	t.pathGen.Add(1)
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
			if mutant.Active == mutant.DiscardSkipsSibling {
				break
			}
		}
		c.status = vRemoved
		c.dropSuccs()
	}
	t.moveDecisions(ep, nil)
}
