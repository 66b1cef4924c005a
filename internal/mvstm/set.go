package mvstm

import (
	"iter"
	"math/bits"

	"wtftm/internal/mutant"
)

// BoxSetInline is the inline capacity of a BoxSet. A served transaction or
// sub-transaction touches one or two boxes (a tstruct bucket, sometimes the
// size counter); sets past the inline capacity spill to an entry slice and
// an index that the owner keeps across reuse (Empty, Reset), so a set whose
// role always spills (a MULTI's write set, a future that reads a thousand
// accounts) stops allocating after its first use.
const BoxSetInline = 4

// boxSetIndexMin is the smallest spilled index: 16 slots, room for 8 entries.
const boxSetIndexMin = 4 * BoxSetInline

// BoxSet is a box-keyed set with a value per box: a Txn's read and write
// sets, and the futures engine's per-vertex read and write sets, visible-write
// indexes and relocation sets. Up to BoxSetInline entries are stored inline
// in the struct; past that the set spills to dense storage: the entries in
// insertion order, and an open-addressed index over them (linear probing on
// the box's Hash, a power-of-two number of slots, at most half of them used).
// A lookup is one probe sequence over int32 slots, iteration ranges over a
// slice, and emptying the set clears the used prefix of the entries (the next
// spill clears the part of the index it uses), not a hash table. The dense
// storage hangs off one pointer. The zero value is an empty set. Entries are
// never removed one at a time, so a set is spilled exactly when it holds more
// than BoxSetInline entries. Not safe for concurrent use.
type BoxSet[V any] struct {
	n    int // inline entries; -1 once the set lives in d
	keys [BoxSetInline]*VBox
	vals [BoxSetInline]V
	d    *boxSetDense[V] // may be non-nil and empty while n >= 0 (kept by Empty and Reset)
	hw   int             // d's high-water entry count, as of its last Empty
}

// boxSetDense is a spilled BoxSet's storage. ents holds the entries in
// insertion order. Each idx slot is 0 (free) or 1 + a position in ents; a
// box's probe sequence starts at Hash() >> shift.
type boxSetDense[V any] struct {
	ents  []boxSetEntry[V]
	idx   []int32
	shift uint8
}

type boxSetEntry[V any] struct {
	b *VBox
	v V
}

// Size returns the number of entries.
func (s *BoxSet[V]) Size() int {
	if s.n < 0 {
		return len(s.d.ents)
	}
	return s.n
}

// Slot looks b up. On a hit, slot names b's entry for At; on a miss, it is
// where Add places b. Either stays valid until the set next changes.
func (s *BoxSet[V]) Slot(b *VBox) (slot int, ok bool) {
	if s.n >= 0 {
		for i := 0; i < s.n; i++ {
			if s.keys[i] == b {
				return i, true
			}
		}
		return s.n, false
	}
	d := s.d
	mask := len(d.idx) - 1
	for i := int(b.Hash() >> d.shift); ; i = (i + 1) & mask {
		p := d.idx[i]
		if p == 0 {
			return i, false
		}
		if d.ents[p-1].b == b {
			return int(p - 1), true
		}
	}
}

// At returns the entry Slot found at slot. The pointer stays valid until
// the set next changes.
func (s *BoxSet[V]) At(slot int) *V {
	if s.n >= 0 {
		return &s.vals[slot]
	}
	return &s.d.ents[slot].v
}

// Add adds a zero entry for b, which Slot just missed at slot, and returns
// it for the caller to fill in place (a first read's observation, DESIGN
// §9). The pointer stays valid until the set next changes.
func (s *BoxSet[V]) Add(slot int, b *VBox) *V {
	if s.n >= 0 {
		if s.n < BoxSetInline {
			s.keys[s.n] = b
			s.n++
			return &s.vals[s.n-1]
		}
		if s.d == nil {
			s.d = new(boxSetDense[V])
		}
		var zero V
		for i := 0; i < s.n; i++ {
			s.d.ents = append(s.d.ents, boxSetEntry[V]{s.keys[i], s.vals[i]})
			s.keys[i], s.vals[i] = nil, zero
		}
		s.n = -1
		s.d.rehash(BoxSetInline + 1)
		slot, _ = s.Slot(b)
	} else if 2*(len(s.d.ents)+1) > len(s.d.idx) {
		s.d.rehash(len(s.d.ents) + 1)
		slot, _ = s.Slot(b)
	}
	d := s.d
	d.ents = append(d.ents, boxSetEntry[V]{b: b})
	d.idx[slot] = int32(len(d.ents))
	return &d.ents[len(d.ents)-1].v
}

// rehash rebuilds the index with room for want entries at load at most
// 1/2. The index is sized by want, not by the capacity it kept: a set that
// once held thousands of entries and now spills with a few clears and probes
// a few hundred bytes, not its widest use's index.
func (d *boxSetDense[V]) rehash(want int) {
	size := boxSetIndexMin
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

// Get returns the value stored for b.
func (s *BoxSet[V]) Get(b *VBox) (v V, ok bool) {
	if slot, ok := s.Slot(b); ok {
		return *s.At(slot), true
	}
	return v, false
}

// Put inserts or overwrites the entry for b. An overwritten entry keeps its
// place in the iteration order. An inline set is handled here without Slot
// and Add: a served transaction's writes all take this path, and the two
// calls cost it about a third more.
func (s *BoxSet[V]) Put(b *VBox, v V) {
	if s.n >= 0 {
		for i := 0; i < s.n; i++ {
			if s.keys[i] == b {
				s.vals[i] = v
				return
			}
		}
		if s.n < BoxSetInline {
			s.keys[s.n], s.vals[s.n] = b, v
			s.n++
			return
		}
	}
	if slot, ok := s.Slot(b); ok {
		*s.At(slot) = v
	} else {
		*s.Add(slot, b) = v
	}
}

// All iterates the entries in insertion order.
func (s *BoxSet[V]) All() iter.Seq2[*VBox, V] {
	return func(yield func(*VBox, V) bool) {
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

// Absorb adds src's entries to s. For a box both hold s keeps
// keep(s's entry, src's entry). When src is spilled and larger, the two
// swap storage and s's former entries are put back on top, so the fold
// costs the smaller side. src is left holding an unspecified part of the
// union: its owner must not read it again before Empty or Reset.
func (s *BoxSet[V]) Absorb(src *BoxSet[V], keep func(kept, dropped V) V) {
	if src.n < 0 && len(src.d.ents) > s.Size() {
		*s, *src = *src, *s
		if mutant.Active != mutant.AbsorbDropsTargetReads {
			for b, v := range src.All() {
				if old, ok := s.Get(b); ok {
					v = keep(v, old)
				}
				s.Put(b, v)
			}
		}
		return
	}
	for b, v := range src.All() {
		if slot, ok := s.Slot(b); ok {
			*s.At(slot) = keep(*s.At(slot), v)
		} else {
			*s.Add(slot, b) = v
		}
	}
}

// Empty removes every entry, keeping the storage.
func (s *BoxSet[V]) Empty() {
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

// Reset empties the set for its owner's next use, dropping every reference
// it held. Spilled storage is kept for the next spill while its high-water
// size fits in *budget, which it is charged; otherwise it is dropped. A set
// that is already empty is charged for the storage it keeps. The kept index
// is cleared, as far as the next spill uses it, by the rehash at that spill.
func (s *BoxSet[V]) Reset(budget *int) {
	s.Empty()
	switch {
	case s.d == nil:
	case s.hw > *budget:
		s.d, s.hw = nil, 0
	default:
		*budget -= s.hw
	}
}

// Storage identifies the set's dense storage, nil while it has none, and
// returns the entries it holds and the high-water count Reset last charged
// for it. It is for tests that follow storage across merges and reuse.
func (s *BoxSet[V]) Storage() (id any, held, charged int) {
	if s.d == nil {
		return nil, 0, 0
	}
	return s.d, len(s.d.ents), s.hw
}
