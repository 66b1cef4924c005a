package core

import (
	"iter"
	"math/bits"
	"sync"

	"wtftm/internal/mutant"
	"wtftm/internal/mvstm"
)

// This file holds the engine's memory plumbing: the box sets of a vertex
// (inline while small, dense past that), and the recycling of a top-level
// attempt's graph arena.
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

// isetInline is the inline capacity of an iset. A sub-transaction of the
// served workloads touches one or two boxes (a tstruct bucket, sometimes the
// size counter); sets past the inline capacity spill to an entry slice and
// an index that the vertex keeps across arena reuse, so a vertex whose role
// always spills (the root of a coalesced write group, a future that reads a
// thousand accounts) stops allocating after its first use.
const isetInline = 4

// isetIndexMin is the smallest spilled index: 16 slots, room for 8 entries.
const isetIndexMin = 4 * isetInline

// arenaMapBudget bounds the spilled set storage one free arena keeps, summed
// over its Tx handles' visible-write indexes (tx.go), then its vertices' sets
// in vertex order, lowest first, which is the order the next attempt hands
// vertices out in, by each one's high-water entry count (entry slices and
// indexes never shrink, so that is the size they keep); storage that would
// overrun the budget is let go to the garbage collector. Measured (go1.24,
// amd64), a spilled read set keeps 512 bytes up to 8 entries, 1.1 KB up to
// 16 and 58 to 93 bytes per entry beyond (a 48-byte entry, the slack append
// leaves, 8 to 16 bytes of index); a write set or index about a fifth less.
// At worst 121 bytes per high-water entry, a free arena keeps about 4 MB.
const arenaMapBudget = 1 << 15

// arenaLogBudget bounds the read logs (graph.go) one free arena keeps, in
// 8-byte slots (512 KB). The bank replay's sets nearly fill arenaMapBudget:
// logs charged to it pushed sets out, to regrow on every attempt.
const arenaLogBudget = 1 << 16

// iset is a small-footprint box-keyed set. Up to isetInline entries are
// stored inline in the struct; past that the set spills to dense storage
// (isetDense): the entries in insertion order, and an open-addressed index
// over them (linear probing on the box's Hash, a power-of-two number of
// slots, at most half of them used). A lookup is one probe sequence over
// int32 slots, iteration ranges over a slice, and emptying the set clears
// the used prefix of the entries (the next spill clears the part of the
// index it uses), not a hash table. The dense storage hangs off one pointer, so a vertex, which
// holds two sets, is no larger than when a spilled set was a Go map. The
// zero value is an empty set. Entries are never removed one at a time. Not
// safe for concurrent use: a vertex's sets belong to its owning flow while
// it is active and to holders of its graph lock after (DESIGN §9).
type iset[V any] struct {
	n    int // inline entries; -1 once the set lives in d
	keys [isetInline]*mvstm.VBox
	vals [isetInline]V
	d    *isetDense[V] // may be non-nil and empty while n >= 0 (kept by reset)
	hw   int           // d's high-water entry count, as of its last reset
}

// isetDense is a spilled iset's storage. ents holds the entries in insertion
// order. Each idx slot is 0 (free) or 1 + a position in ents; a box's probe
// sequence starts at Hash() >> shift.
type isetDense[V any] struct {
	ents  []isetEntry[V]
	idx   []int32
	shift uint8
}

type isetEntry[V any] struct {
	b *mvstm.VBox
	v V
}

// size returns the number of entries.
func (s *iset[V]) size() int {
	if s.n < 0 {
		return len(s.d.ents)
	}
	return s.n
}

// find looks b up. On a miss, slot is where insert places b; it stays valid
// until the set next changes.
func (s *iset[V]) find(b *mvstm.VBox) (v V, slot int, ok bool) {
	if s.n >= 0 {
		for i := 0; i < s.n; i++ {
			if s.keys[i] == b {
				return s.vals[i], i, true
			}
		}
		return v, s.n, false
	}
	d := s.d
	mask := len(d.idx) - 1
	for i := int(b.Hash() >> d.shift); ; i = (i + 1) & mask {
		p := d.idx[i]
		if p == 0 {
			return v, i, false
		}
		if e := &d.ents[p-1]; e.b == b {
			return e.v, i, true
		}
	}
}

// insert adds an entry for b, which find just missed at slot.
func (s *iset[V]) insert(slot int, b *mvstm.VBox, v V) {
	if s.n >= 0 {
		if s.n < isetInline {
			s.keys[s.n], s.vals[s.n] = b, v
			s.n++
			return
		}
		if s.d == nil {
			s.d = new(isetDense[V])
		}
		var zero V
		for i := 0; i < s.n; i++ {
			s.d.ents = append(s.d.ents, isetEntry[V]{s.keys[i], s.vals[i]})
			s.keys[i], s.vals[i] = nil, zero
		}
		s.n = -1
		s.d.rehash(isetInline + 1)
		_, slot, _ = s.find(b)
	} else if 2*(len(s.d.ents)+1) > len(s.d.idx) {
		s.d.rehash(len(s.d.ents) + 1)
		_, slot, _ = s.find(b)
	}
	d := s.d
	d.ents = append(d.ents, isetEntry[V]{b, v})
	d.idx[slot] = int32(len(d.ents))
}

// rehash rebuilds the index with room for want entries at load at most
// 1/2. The index is sized by want, not by the capacity it kept: a set that
// once held thousands of entries and now spills with a few clears and probes
// a few hundred bytes, not its widest use's index.
func (d *isetDense[V]) rehash(want int) {
	size := isetIndexMin
	for size < 2*want {
		size *= 2
	}
	if size <= cap(d.idx) {
		d.idx = d.idx[:size]
		clear(d.idx)
	} else {
		d.idx = make([]int32, size)
	}
	d.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for p := range d.ents {
		i := int(d.ents[p].b.Hash() >> d.shift)
		for d.idx[i] != 0 {
			i = (i + 1) & mask
		}
		d.idx[i] = int32(p + 1)
	}
}

// get returns the value stored for b.
func (s *iset[V]) get(b *mvstm.VBox) (V, bool) {
	v, _, ok := s.find(b)
	return v, ok
}

// put inserts or overwrites the entry for b. An overwritten entry keeps its
// place in the iteration order. An inline set is handled here without find
// and insert: a served sub-transaction's writes all take this path, and the
// two calls cost it about a third more.
func (s *iset[V]) put(b *mvstm.VBox, v V) {
	if s.n >= 0 {
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
	}
	if _, slot, ok := s.find(b); ok {
		s.d.ents[s.d.idx[slot]-1].v = v
	} else {
		s.insert(slot, b, v)
	}
}

// all iterates the entries in insertion order.
func (s *iset[V]) all() iter.Seq2[*mvstm.VBox, V] {
	return func(yield func(*mvstm.VBox, V) bool) {
		if s.n < 0 {
			ents := s.d.ents
			for i := range ents {
				if !yield(ents[i].b, ents[i].v) {
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

// absorb adds src's entries to s. For a box both hold s keeps
// keep(s's entry, src's entry). When src is spilled and larger, the two
// swap storage and s's former entries are put back on top, so the fold
// costs the smaller side. src is left holding an unspecified part of the
// union: its owner must not read it again before reset.
func (s *iset[V]) absorb(src *iset[V], keep func(kept, dropped V) V) {
	if src.n < 0 && len(src.d.ents) > s.size() {
		*s, *src = *src, *s
		if mutant.Active != mutant.AbsorbDropsTargetReads {
			for b, v := range src.all() {
				if old, ok := s.get(b); ok {
					v = keep(v, old)
				}
				s.put(b, v)
			}
		}
		return
	}
	for b, v := range src.all() {
		if old, slot, ok := s.find(b); !ok {
			s.insert(slot, b, v)
		} else {
			s.put(b, keep(old, v))
		}
	}
}

// empty removes every entry, keeping the storage.
func (s *iset[V]) empty() {
	if s.n < 0 {
		d := s.d
		s.hw = max(s.hw, len(d.ents))
		clear(d.ents)
		d.ents = d.ents[:0]
	} else {
		clear(s.keys[:s.n])
		clear(s.vals[:s.n])
	}
	s.n = 0
}

// reset empties the set for the vertex's next use, dropping every reference
// it held. Spilled storage is kept for the next spill while its high-water
// size fits in *budget, which it is charged; otherwise it is dropped. A set
// that is already empty is charged for the storage it keeps. The kept index
// is cleared, as far as the next spill uses it, by the rehash at that spill.
func (s *iset[V]) reset(budget *int) {
	s.empty()
	switch {
	case s.d == nil:
	case s.hw > *budget:
		s.d, s.hw = nil, 0
	default:
		*budget -= s.hw
	}
}

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
