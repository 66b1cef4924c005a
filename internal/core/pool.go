package core

import "sync"

// This file holds the recycling of a top-level attempt's graph arena.
//
// The arena of an attempt is its topTx value together with everything hung
// off it — the vertices of G, the Tx handles of its flows, the future
// registry and the validation/merge scratch. Who owns it, until when:
//
//   - An attempt owns its arena from newTop until it is quiescent: the main
//     flow has left commit or abort and every future it submitted has
//     settled (topTx.refs reaches zero). Until then future bodies, including
//     stragglers of an aborted attempt, may still touch vertices and their
//     Tx handle, so nothing is reused earlier. The flow that drops the last
//     reference retires the arena: it wipes it (so a free arena pins no user
//     value, closure or version) and puts it on the System's free list, from
//     which the next newTop takes it.
//   - An attempt whose commit left a future unserialized (escaped > 0: a GAC
//     escapee, or a cancelled future) does not recycle. Another transaction
//     may evaluate that future at any later time and then walks its chain
//     and the spawner's main chain in place; nothing bounds how long the
//     handle is kept, so the arena is left to the garbage collector, exactly
//     as before recycling existed. The rule is observed at commit, not
//     configured: LAC transactions and GAC transactions whose futures all
//     serialized recycle.
//   - *Future handles are never recycled and stay valid forever: a retained
//     handle evaluated from a later transaction returns its memoized result
//     or ErrStaleFuture. What such an evaluation needs (state, result, error
//     and the attempt's outcome record) lives in the handle and in the
//     attempt record, both ordinary heap values. A handle's pointers into the
//     arena are dropped when the future reaches a terminal state and, for
//     every future of the attempt, when the arena retires, so a handle pins
//     no vertex and can never reach an arena that was handed to another
//     attempt.
//
// Tx handles are arena memory: using one after its transaction or future
// body returned was always a bug and now may observe another attempt.

// arenaMapBudget bounds the spilled set storage (mvstm.BoxSet.Reset) one
// free arena keeps, summed over its Tx handles' visible-write indexes
// (tx.go), then its vertices' sets in vertex order, lowest first, which is
// the order the next attempt hands vertices out in, by each one's
// high-water entry count (entry slices and indexes never shrink, so that is
// the size they keep); storage that would overrun the budget is let go to
// the garbage collector. Measured (go1.24,
// amd64), a spilled read set keeps 512 bytes up to 8 entries, 1.1 KB up to
// 16 and 58 to 93 bytes per entry beyond (a 48-byte entry, the slack append
// leaves, 8 to 16 bytes of index); a write set or index about a fifth less.
// At worst 121 bytes per high-water entry, a free arena keeps about 4 MB.
const arenaMapBudget = 1 << 15

// arenaLogBudget bounds the read logs (graph.go) one free arena keeps, in
// 8-byte slots (512 KB). The bank replay's sets nearly fill arenaMapBudget:
// logs charged to it pushed sets out, to regrow on every attempt.
const arenaLogBudget = 1 << 16

// arenaFreeMax bounds the System's free list, and arenaKeep the vertices,
// Tx handles and errReads slots a free arena holds on to: together with the
// two budgets above they cap what recycling can keep resident at about 37 MB
// (32 MB of it spilled set storage at the budget's worst case, 4 MB read
// logs; a few hundred KB when no vertex spills far), whatever the largest
// transaction ever run looked like.
const (
	arenaFreeMax = 8
	arenaKeep    = 256
)

// arenaList is the System's free list of retired arenas.
type arenaList struct {
	mu   sync.Mutex
	free []*topTx
}

// getTop returns a wiped arena, reusing the most recently retired one.
func (s *System) getTop() *topTx {
	l := &s.arenas
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		t := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return t
	}
	l.mu.Unlock()
	return &topTx{sys: s}
}

// recycle wipes a quiescent arena and offers it to the free list. Caller
// holds the attempt's last reference.
func (s *System) recycle(t *topTx) {
	t.wipe()
	l := &s.arenas
	l.mu.Lock()
	if len(l.free) < arenaFreeMax {
		l.free = append(l.free, t)
	}
	l.mu.Unlock()
}

// allocVertex hands out the arena's next vertex, allocating one only when
// the arena has never been this large. Recycled vertices were reset when
// their arena retired. Caller holds top.mu (or is pre-concurrency).
func (t *topTx) allocVertex() *vertex {
	if t.nverts == len(t.verts) {
		t.verts = append(t.verts, &vertex{top: t})
	}
	v := t.verts[t.nverts]
	t.nverts++
	return v
}

// newTx hands out the arena's next Tx handle, bound to cur, its index
// unbuilt. Caller holds top.mu (or is pre-concurrency).
func (t *topTx) newTx(cur *vertex) *Tx {
	if t.ntxs == len(t.txs) {
		t.txs = append(t.txs, &Tx{top: t})
	}
	tx := t.txs[t.ntxs]
	t.ntxs++
	tx.cur, tx.visGen = cur, -1
	return tx
}

// wipe returns the arena to its initial state, keeping only reusable
// storage. Every future of the attempt is settled and the main flow is done,
// so nothing else can touch the arena; the handles that outlive it let go of
// it here.
func (t *topTx) wipe() {
	for _, f := range t.futures {
		f.dropGraph()
		f.prevInFlow = nil
	}
	clear(t.futures)
	t.futures = t.futures[:0]
	if cap(t.errReads) > arenaKeep {
		t.errReads = nil
	}
	clear(t.errReads[:cap(t.errReads)])
	t.errReads = t.errReads[:0]
	budget, logBudget := arenaMapBudget, arenaLogBudget
	for _, tx := range t.txs { // spares past ntxs are charged for what they kept
		tx.reset(&budget)
	}
	for _, v := range t.verts { // so are spares: reset by an earlier wipe, charged again
		v.reset(&budget, &logBudget)
	}
	if len(t.verts) > arenaKeep {
		clear(t.verts[arenaKeep:])
		t.verts = t.verts[:arenaKeep]
	}
	if len(t.txs) > arenaKeep {
		clear(t.txs[arenaKeep:])
		t.txs = t.txs[:arenaKeep]
	}
	t.nverts, t.ntxs = 0, 0
	clear(t.stack[:cap(t.stack)])
	clear(t.chainBuf[:cap(t.chainBuf)])
	t.topState = topState{}
}
