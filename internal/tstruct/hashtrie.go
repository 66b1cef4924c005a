package tstruct

import (
	"math/bits"
	"slices"
)

// A Map bucket's box holds the root of an immutable hash trie over the
// 64-bit maphash of each key — the same hash whose remainder picked the
// bucket, so an operation hashes its key once.
//
//   - A leaf holds up to leafMax entries sorted by hash. Every entry keeps its
//     hash h: a lookup compares 8-byte integers and reads a key string only
//     when the hashes are equal, and a split never rehashes a key.
//   - An inner node routes on trieBits further bits of the hash, most
//     significant first (level d uses bits 63-4d down to 60-4d). It stores
//     only the children that exist, found by popcount over a bitmap.
//   - After trieLevels levels the hash is used up: a leaf there holds keys
//     whose hashes are all equal and grows without splitting.
//
// Put and Delete copy the nodes on the path to the key and share the rest,
// so nothing reachable from a published box value is ever written again.
// Because slots take the high bits first and leaves are sorted, a walk visits
// a bucket in ascending hash order.
const (
	leafMax    = 32 // a bucket of wtfd's mixed-durable shape (~16 keys) stays one leaf
	trieBits   = 4
	trieLevels = 64 / trieBits
)

type mapEntry struct {
	h   uint64
	key string
	val any
}

// leaf is a run of entries sorted by h. A small bucket's root is a leaf
// itself, so writing it costs what the bucket's entries cost.
type leaf struct{ ents []mapEntry }

// inner is a trie node with a child per occupied slot.
type inner struct {
	bits uint16 // slot s has a child iff bit s is set
	kids []any  // *leaf or *inner, one per set bit, in slot order
}

// emptyLeaf is every empty bucket's root.
var emptyLeaf = &leaf{}

// slot is h's bit in the bitmap of an inner node on level depth.
func slot(h uint64, depth int) uint16 {
	return 1 << (h >> (64 - trieBits*(depth+1)) & (1<<trieBits - 1))
}

// child is the index in in.kids of the child at slot bit.
func (in *inner) child(bit uint16) int { return bits.OnesCount16(in.bits & (bit - 1)) }

// seek is the index of the first entry whose hash is not below h.
func seek(ents []mapEntry, h uint64) int {
	i, j := 0, len(ents)
	for i < j {
		m := int(uint(i+j) >> 1)
		if ents[m].h < h {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// lookup finds key, whose hash is h, in the trie rooted at n. K lets
// GetFastBytes pass the key still in its wire buffer without building a
// string.
func lookup[K ~string | ~[]byte](n any, h uint64, key K) (any, bool) {
	for depth := 0; ; depth++ {
		in, ok := n.(*inner)
		if !ok {
			break
		}
		bit := slot(h, depth)
		if in.bits&bit == 0 {
			return nil, false
		}
		n = in.kids[in.child(bit)]
	}
	ents := n.(*leaf).ents
	for i := seek(ents, h); i < len(ents) && ents[i].h == h; i++ {
		if ents[i].key == string(key) {
			return ents[i].val, true
		}
	}
	return nil, false
}

// put returns the trie n on level depth with key (hash h) bound to val, and
// whether key is new.
func put(n any, depth int, h uint64, key string, val any) (any, bool) {
	if in, ok := n.(*inner); ok {
		bit := slot(h, depth)
		i := in.child(bit)
		if in.bits&bit == 0 {
			kids := make([]any, len(in.kids)+1)
			copy(kids, in.kids[:i])
			kids[i] = &leaf{[]mapEntry{{h, key, val}}}
			copy(kids[i+1:], in.kids[i:])
			return &inner{in.bits | bit, kids}, true
		}
		kid, added := put(in.kids[i], depth+1, h, key, val)
		kids := slices.Clone(in.kids)
		kids[i] = kid
		return &inner{in.bits, kids}, added
	}
	ents := n.(*leaf).ents
	i := seek(ents, h)
	for j := i; j < len(ents) && ents[j].h == h; j++ {
		if ents[j].key == key {
			next := slices.Clone(ents)
			next[j].val = val
			return &leaf{next}, false
		}
	}
	next := make([]mapEntry, len(ents)+1)
	copy(next, ents[:i])
	next[i] = mapEntry{h, key, val}
	copy(next[i+1:], ents[i:])
	return build(next, depth), true
}

// del returns the trie n on level depth without key (hash h), and whether
// key was there. An emptied child is dropped, and an inner node left with no
// children is emptyLeaf; a shrinking inner node is not folded back into a
// leaf.
func del(n any, depth int, h uint64, key string) (any, bool) {
	if in, ok := n.(*inner); ok {
		bit := slot(h, depth)
		if in.bits&bit == 0 {
			return n, false
		}
		i := in.child(bit)
		kid, removed := del(in.kids[i], depth+1, h, key)
		if !removed {
			return n, false
		}
		if kid != emptyLeaf {
			kids := slices.Clone(in.kids)
			kids[i] = kid
			return &inner{in.bits, kids}, true
		}
		if len(in.kids) == 1 {
			return emptyLeaf, true
		}
		return &inner{in.bits &^ bit, slices.Delete(slices.Clone(in.kids), i, i+1)}, true
	}
	ents := n.(*leaf).ents
	for j := seek(ents, h); j < len(ents) && ents[j].h == h; j++ {
		if ents[j].key == key {
			if len(ents) == 1 {
				return emptyLeaf, true
			}
			return &leaf{slices.Delete(slices.Clone(ents), j, j+1)}, true
		}
	}
	return n, false
}

// build is the trie on level depth over ents, which are non-empty, sorted by
// hash and owned by the caller: a run of more than leafMax entries splits on the
// next slot bits. Each child gets its own copy of its run, so a value a
// later Put overwrites in one leaf is not kept alive by a sibling's array.
func build(ents []mapEntry, depth int) any {
	if len(ents) <= leafMax || depth == trieLevels {
		return &leaf{ents}
	}
	// Entries sorted by hash are sorted by slot too (all share the bits
	// above this level), so each child is one contiguous run.
	in := &inner{}
	for len(ents) > 0 {
		bit := slot(ents[0].h, depth)
		j := 1
		for j < len(ents) && slot(ents[j].h, depth) == bit {
			j++
		}
		in.bits |= bit
		in.kids = append(in.kids, build(slices.Clone(ents[:j]), depth+1))
		ents = ents[j:]
	}
	return in
}

// walk calls fn on n's entries in hash order until fn returns false, and
// reports whether it got to the end.
func walk(n any, fn func(e *mapEntry) bool) bool {
	if in, ok := n.(*inner); ok {
		for _, k := range in.kids {
			if !walk(k, fn) {
				return false
			}
		}
		return true
	}
	ents := n.(*leaf).ents
	for i := range ents {
		if !fn(&ents[i]) {
			return false
		}
	}
	return true
}
