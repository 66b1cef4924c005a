package core

import (
	"iter"
	"sync"

	"wtftm/internal/mutant"
	"wtftm/internal/mvstm"
)

// This file holds the engine's memory plumbing: the small inline box sets of
// a vertex, and the recycling of a top-level attempt's graph arena.
//
// The arena of an attempt is its topTx value together with everything hung
// off it — the vertices of G, the Tx handles of its flows, the flow and
// future registries and the validation/merge scratch. Who owns it, until
// when:
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
//     may evaluate that future at any later time and buildDetach then reads
//     the spawner's vertices and commit record; nothing bounds how long the
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

// isetInline is the inline capacity of an iset. A sub-transaction of the
// served workloads touches one or two boxes (a tstruct bucket, sometimes the
// size counter); sets past the inline capacity spill to a map that the
// vertex keeps across arena reuse, so a vertex whose role always spills (the
// root of a coalesced write group, a future that reads a thousand accounts)
// stops allocating after its first use.
const isetInline = 4

// isetRetain is the largest Tx visible-write index a recycled Tx handle
// keeps (tx.go); larger ones are left to the garbage collector.
const isetRetain = 32

// arenaMapBudget bounds the spilled set maps one free arena keeps, summed
// over its vertices by each map's high-water entry count (a Go map never
// shrinks, so that is the size it keeps). Maps are kept in vertex order,
// lowest first, which is the order the next attempt hands vertices out in;
// a map that would overrun the budget is left to the garbage collector. A
// map holds at most 128 bytes per high-water entry past 28 entries and
// about 1.9 KB below that, and an arena has at most 2 × arenaKeep set maps,
// so one free arena keeps at most about 5.2 MB of them.
const arenaMapBudget = 1 << 15

// iset is a small-footprint box-keyed set: up to isetInline entries are
// stored inline in the struct, past that it spills to a heap map. The zero
// value is an empty set. Not safe for concurrent use; callers synchronize
// exactly as they did for the maps it replaces (vertex.vmu).
type iset[V any] struct {
	n    int // inline entries; -1 once the set lives in m
	keys [isetInline]*mvstm.VBox
	vals [isetInline]V
	m    map[*mvstm.VBox]V // may be non-nil and empty while n >= 0 (kept by reset)
	hw   int               // m's high-water entry count, as of its last reset
}

// size returns the number of entries.
func (s *iset[V]) size() int {
	if s.n < 0 {
		return len(s.m)
	}
	return s.n
}

// get returns the value stored for b.
func (s *iset[V]) get(b *mvstm.VBox) (V, bool) {
	if s.n < 0 {
		v, ok := s.m[b]
		return v, ok
	}
	for i := 0; i < s.n; i++ {
		if s.keys[i] == b {
			return s.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// put inserts or overwrites the entry for b.
func (s *iset[V]) put(b *mvstm.VBox, v V) {
	if s.n < 0 {
		s.m[b] = v
		return
	}
	for i := 0; i < s.n; i++ {
		if s.keys[i] == b {
			s.vals[i] = v
			return
		}
	}
	if s.n < isetInline {
		s.keys[s.n], s.vals[s.n] = b, v
		s.n++
		return
	}
	if s.m == nil {
		s.m = make(map[*mvstm.VBox]V, 4*isetInline)
	}
	var zero V
	for i := 0; i < s.n; i++ {
		s.m[s.keys[i]] = s.vals[i]
		s.keys[i], s.vals[i] = nil, zero
	}
	s.n = -1
	s.m[b] = v
}

// del removes the entry for b, if present.
func (s *iset[V]) del(b *mvstm.VBox) {
	if s.n < 0 {
		delete(s.m, b)
		return
	}
	for i := 0; i < s.n; i++ {
		if s.keys[i] == b {
			s.n--
			s.keys[i], s.vals[i] = s.keys[s.n], s.vals[s.n]
			s.keys[s.n] = nil
			var zero V
			s.vals[s.n] = zero
			return
		}
	}
}

// all iterates the entries in unspecified order, like a map range.
func (s *iset[V]) all() iter.Seq2[*mvstm.VBox, V] {
	return func(yield func(*mvstm.VBox, V) bool) {
		if s.n < 0 {
			for b, v := range s.m {
				if !yield(b, v) {
					return
				}
			}
			return
		}
		for i := 0; i < s.n; i++ {
			if !yield(s.keys[i], s.vals[i]) {
				return
			}
		}
	}
}

// absorb adds src's entries to s, keeping s's entry for a box both hold.
// When src is spilled and larger, the two swap storage and s's former
// entries are put back on top, so the fold costs the smaller side. src is
// left holding an unspecified part of the union: its owner must not read it
// again before reset.
func (s *iset[V]) absorb(src *iset[V]) {
	if src.n < 0 && len(src.m) > s.size() {
		*s, *src = *src, *s
		if mutant.Active != mutant.AbsorbDropsTargetReads {
			for b, v := range src.all() {
				s.put(b, v)
			}
		}
		return
	}
	for b, v := range src.all() {
		if _, ok := s.get(b); !ok {
			s.put(b, v)
		}
	}
}

// reset empties the set for the vertex's next use, dropping every reference
// it held. A spilled map is kept (emptied) for the next spill while its
// high-water size fits in *budget, which it is charged; otherwise it is
// dropped. A set that is already empty is charged for the map it keeps.
func (s *iset[V]) reset(budget *int) {
	if s.n < 0 {
		s.hw = max(s.hw, len(s.m))
	} else {
		clear(s.keys[:s.n])
		clear(s.vals[:s.n])
	}
	s.n = 0
	switch {
	case s.m == nil:
	case s.hw > *budget:
		s.m, s.hw = nil, 0
	default:
		*budget -= s.hw
		clear(s.m)
	}
}

// arenaFreeMax bounds the System's free list, and arenaKeep the vertices and
// Tx handles a free arena holds on to: together with arenaMapBudget and
// isetRetain they cap what recycling can keep resident at about 43 MB (42 MB
// of it set maps at the budget's worst case; a few hundred KB when no
// vertex spills far), whatever the largest transaction ever run looked like.
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

// newTx hands out the arena's next Tx handle, bound to cur and registered as
// a live flow. Caller holds top.mu (or is pre-concurrency).
func (t *topTx) newTx(cur *vertex) *Tx {
	if t.ntxs == len(t.txs) {
		t.txs = append(t.txs, &Tx{top: t})
	}
	tx := t.txs[t.ntxs]
	t.ntxs++
	tx.cur = cur
	tx.slot = len(t.flows)
	t.flows = append(t.flows, tx)
	return tx
}

// unregister removes a flow whose body finished from the live registry: its
// Tx resolves no further reads, so its index needs no more invalidations.
// Caller holds top.mu exclusively.
func (t *topTx) unregister(tx *Tx) {
	if tx.slot < 0 {
		return
	}
	last := len(t.flows) - 1
	t.flows[tx.slot] = t.flows[last]
	t.flows[tx.slot].slot = tx.slot
	t.flows[last] = nil
	t.flows = t.flows[:last]
	tx.slot = -1
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
	budget := arenaMapBudget
	for i, v := range t.verts {
		if i < t.nverts {
			v.reset(&budget)
		} else {
			// Reset by an earlier wipe; its kept maps count all the same.
			v.reads.reset(&budget)
			v.writes.reset(&budget)
		}
	}
	for _, tx := range t.txs[:t.ntxs] {
		tx.reset()
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
	clear(t.flows)
	t.flows = t.flows[:0]
	clear(t.stack[:cap(t.stack)])
	clear(t.chainBuf[:cap(t.chainBuf)])
	t.topState = topState{}
}
