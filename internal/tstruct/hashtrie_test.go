package tstruct

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"testing"
)

// checkTrie checks the trie rooted at n: leaves sorted by hash, at most
// leafMax entries above the last level, no duplicate key, no empty node below
// the root and an empty root that is emptyLeaf, every entry under the slots
// that route to it, and (when seed is non-nil) every stored hash the key's.
func checkTrie(n any, seed *maphash.Seed) error {
	return checkNode(n, nil, seed)
}

func checkNode(n any, path []uint16, seed *maphash.Seed) error {
	depth := len(path)
	if in, ok := n.(*inner); ok {
		if depth >= trieLevels {
			return fmt.Errorf("inner node on level %d", depth)
		}
		if len(in.kids) == 0 || len(in.kids) != bits.OnesCount16(in.bits) {
			return fmt.Errorf("level %d: %d kids for bitmap %016b", depth, len(in.kids), in.bits)
		}
		rest := in.bits
		for _, kid := range in.kids {
			bit := rest & -rest
			rest &^= bit
			if err := checkNode(kid, append(path[:depth:depth], bit), seed); err != nil {
				return err
			}
		}
		return nil
	}
	ents := n.(*leaf).ents
	switch {
	case len(ents) == 0 && (depth > 0 || n != any(emptyLeaf)):
		return fmt.Errorf("level %d: empty leaf %p (emptyLeaf is %p)", depth, n, emptyLeaf)
	case len(ents) > leafMax && depth < trieLevels:
		return fmt.Errorf("level %d: leaf of %d entries, max %d", depth, len(ents), leafMax)
	}
	for i, e := range ents {
		if i > 0 && ents[i-1].h > e.h {
			return fmt.Errorf("level %d: leaf out of hash order at %d", depth, i)
		}
		for j := i - 1; j >= 0 && ents[j].h == e.h; j-- {
			if ents[j].key == e.key {
				return fmt.Errorf("level %d: key %q twice", depth, e.key)
			}
		}
		if seed != nil && e.h != maphash.String(*seed, e.key) {
			return fmt.Errorf("key %q stored with a hash that is not its own", e.key)
		}
		for d, bit := range path {
			if slot(e.h, d) != bit {
				return fmt.Errorf("key %q under the wrong slot on level %d", e.key, d)
			}
		}
	}
	return nil
}

// TestTrieHashCollision gives distinct keys one 64-bit hash, and others that
// differ from it only in the lowest bit, so the trie runs out of hash bits:
// the keys sharing a hash end in one leaf on the last level that holds more
// than leafMax entries. Put, lookup and Delete must all still tell the
// keys apart, and deleting every key must give back the empty root.
func TestTrieHashCollision(t *testing.T) {
	const same = uint64(0x9e3779b97f4a7c15)
	n := 2*leafMax + 5
	var root any = emptyLeaf
	hashOf := func(i int) uint64 { return same ^ uint64(i%3/2) } // every third key differs in bit 0
	for i := 0; i < n; i++ {
		var added bool
		if root, added = put(root, 0, hashOf(i), fmt.Sprintf("k%d", i), i); !added {
			t.Fatalf("put k%d: not added", i)
		}
		if err := checkTrie(root, nil); err != nil {
			t.Fatalf("after put k%d: %v", i, err)
		}
	}
	depth, node := 0, root
	for {
		in, ok := node.(*inner)
		if !ok {
			break
		}
		node = in.kids[in.child(slot(same, depth))]
		depth++
	}
	if depth != trieLevels || len(node.(*leaf).ents) <= leafMax {
		t.Fatalf("leaf of the shared hash on level %d with %d entries, want level %d with more than %d", depth, len(node.(*leaf).ents), trieLevels, leafMax)
	}
	for i := 0; i < n; i++ {
		if v, ok := lookup(root, hashOf(i), fmt.Sprintf("k%d", i)); !ok || v != i {
			t.Fatalf("lookup k%d = (%v, %v)", i, v, ok)
		}
		if v, ok := lookup(root, hashOf(i), []byte(fmt.Sprintf("k%d", i))); !ok || v != i {
			t.Fatalf("lookup []byte k%d = (%v, %v)", i, v, ok)
		}
	}
	if _, ok := lookup(root, same, "absent"); ok {
		t.Fatal("lookup found a key that was never put")
	}

	// An overwrite among colliding keys replaces only its own key's value.
	over, added := put(root, 0, same, "k0", "new")
	if added {
		t.Fatal("overwriting k0 reported a new key")
	}
	if err := checkTrie(over, nil); err != nil {
		t.Fatalf("after overwrite: %v", err)
	}
	for key, want := range map[string]any{"k0": "new", "k1": 1} {
		if v, ok := lookup(over, same, key); !ok || v != want {
			t.Fatalf("after overwrite %s = (%v, %v), want %v", key, v, ok, want)
		}
	}

	for i := 0; i < n; i++ {
		var removed bool
		if root, removed = del(root, 0, hashOf(i), fmt.Sprintf("k%d", i)); !removed {
			t.Fatalf("del k%d: not removed", i)
		}
		if err := checkTrie(root, nil); err != nil {
			t.Fatalf("after del k%d: %v", i, err)
		}
		if _, removed := del(root, 0, hashOf(i), fmt.Sprintf("k%d", i)); removed {
			t.Fatalf("del k%d twice removed it twice", i)
		}
	}
	if root != any(emptyLeaf) {
		t.Fatalf("root after deleting every key = %#v, want emptyLeaf", root)
	}
}
