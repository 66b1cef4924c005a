// Package tstruct provides transactional data structures built on versioned
// boxes: a hash map, a FIFO queue and a sharded counter. They compose
// with transactional futures exactly like raw boxes do — a future that
// touches a bucket conflicts only with sub-transactions touching the same
// bucket — making them the natural shared-state layer for the concurrent
// applications the paper's introduction motivates.
//
// All structures store immutable values inside boxes: a write installs a new
// value (a copied slice, or for Map a path-copied hash trie sharing every
// untouched node) and never mutates a published one, so readers never
// observe partial updates — not even readers outside any transaction — and
// the MV-STM's version chains stay well-formed.
package tstruct

import (
	"fmt"
	"hash/maphash"

	"wtftm/internal/mvstm"
)

// Map is a transactional hash map with a fixed bucket count. Keys are
// strings; values are arbitrary. Operations conflict only when they touch
// the same bucket (or the size counter, for size-changing operations).
//
// Each bucket box holds the root of an immutable hash trie (hashtrie.go):
// leaves of at most leafMax entries that carry their key's 64-bit hash,
// under inner nodes that split on further bits of that hash. A lookup
// compares hashes before it reads any key string, and Put and Delete copy
// only the nodes on the key's path. ForEach and Snapshot visit a bucket in
// hash order.
type Map struct {
	stm     *mvstm.STM
	buckets []*mvstm.VBox // each holds its trie's root, a *leaf or an *inner
	size    *mvstm.VBox   // int
	seed    maphash.Seed
}

// NewMap creates a map with the given bucket count (rounded up to 1).
func NewMap(stm *mvstm.STM, buckets int) *Map {
	return NewMapNamed(stm, "tmap", buckets)
}

// NewMapNamed is NewMap with a distinct box-name prefix. Instances sharing
// one history recorder need unique prefixes, or the FSG oracle conflates
// same-named buckets of different maps into one variable.
func NewMapNamed(stm *mvstm.STM, name string, buckets int) *Map {
	if buckets < 1 {
		buckets = 1
	}
	m := &Map{
		stm:     stm,
		buckets: make([]*mvstm.VBox, buckets),
		size:    stm.NewBoxNamed(name+".size", 0),
		seed:    maphash.MakeSeed(),
	}
	for i := range m.buckets {
		m.buckets[i] = stm.NewBoxNamed(fmt.Sprintf("%s.b%d", name, i), emptyLeaf)
	}
	return m
}

// bucket is the box of the key whose hash is h.
func (m *Map) bucket(h uint64) *mvstm.VBox { return m.buckets[h%uint64(len(m.buckets))] }

// Get returns the value for key and whether it is present.
func (m *Map) Get(tx mvstm.ReadWriter, key string) (any, bool) {
	h := maphash.String(m.seed, key)
	return lookup(tx.Read(m.bucket(h)), h, key)
}

// GetFastBytes returns the value for key at the current commit clock without
// a transaction, via mvstm.ReadLatest on the key's bucket. Every node
// reachable from a published bucket value is immutable (writers path-copy),
// so walking the trie outside any transaction is safe. retries and ok relay
// ReadLatest's outcome: on !ok (retry budget exhausted by concurrent version
// trims) the caller must re-issue the read through a transaction; found is
// only meaningful when ok is true.
//
// The key is still a byte slice in its wire buffer: the hash (maphash.Bytes
// equals maphash.String over the same bytes) and the one lookup Get also
// uses run directly over the slice, so the caller materializes no key string.
func (m *Map) GetFastBytes(key []byte) (val any, found bool, retries int, ok bool) {
	h := maphash.Bytes(m.seed, key)
	root, retries, ok := m.stm.ReadLatest(m.bucket(h))
	if !ok {
		return nil, false, retries, false
	}
	val, found = lookup(root, h, key)
	return val, found, retries, true
}

// Put stores val under key, returning whether the key was new.
func (m *Map) Put(tx mvstm.ReadWriter, key string, val any) bool {
	h := maphash.String(m.seed, key)
	b := m.bucket(h)
	root, added := put(tx.Read(b), 0, h, key, val)
	tx.Write(b, root)
	if added {
		tx.Write(m.size, tx.Read(m.size).(int)+1)
	}
	return added
}

// Delete removes key, returning whether it was present.
func (m *Map) Delete(tx mvstm.ReadWriter, key string) bool {
	h := maphash.String(m.seed, key)
	b := m.bucket(h)
	root, removed := del(tx.Read(b), 0, h, key)
	if removed {
		tx.Write(b, root)
		tx.Write(m.size, tx.Read(m.size).(int)-1)
	}
	return removed
}

// Len returns the number of entries.
func (m *Map) Len(tx mvstm.ReadWriter) int { return tx.Read(m.size).(int) }

// ForEach visits every entry (bucket order, hash order within a bucket); it
// reads every bucket, so the enclosing transaction conflicts with any
// concurrent size-changing writer.
func (m *Map) ForEach(tx mvstm.ReadWriter, fn func(key string, val any) bool) {
	for _, b := range m.buckets {
		if !walk(tx.Read(b), func(e *mapEntry) bool { return fn(e.key, e.val) }) {
			return
		}
	}
}

// KV is one key-value pair, the unit of Snapshot/Restore bulk transfer.
type KV struct {
	Key string
	Val any
}

// Snapshot appends every entry to dst (bucket order, hash order within a
// bucket) and returns it. Like ForEach it reads every bucket, so the
// enclosing transaction observes one consistent cut of the map — which is
// exactly what a durability checkpoint needs.
func (m *Map) Snapshot(tx mvstm.ReadWriter, dst []KV) []KV {
	for _, b := range m.buckets {
		walk(tx.Read(b), func(e *mapEntry) bool {
			dst = append(dst, KV{Key: e.key, Val: e.val})
			return true
		})
	}
	return dst
}

// Restore bulk-inserts kvs (later duplicates win). It is Put per key but
// writes the size box once, where n repeated Puts would serialize every
// restore transaction on the size box.
func (m *Map) Restore(tx mvstm.ReadWriter, kvs []KV) {
	added := 0
	for _, kv := range kvs {
		h := maphash.String(m.seed, kv.Key)
		b := m.bucket(h)
		root, isNew := put(tx.Read(b), 0, h, kv.Key, kv.Val)
		tx.Write(b, root)
		if isNew {
			added++
		}
	}
	if added != 0 {
		tx.Write(m.size, tx.Read(m.size).(int)+added)
	}
}

// Queue is a transactional FIFO queue using the classic two-list functional
// representation: enqueues touch only the back box, dequeues usually touch
// only the front box, so producers and consumers rarely conflict.
type Queue struct {
	front *mvstm.VBox // []any, next element at the end
	back  *mvstm.VBox // []any, newest element at the end
}

// NewQueue creates an empty queue.
func NewQueue(stm *mvstm.STM) *Queue {
	return &Queue{
		front: stm.NewBoxNamed("tqueue.front", []any(nil)),
		back:  stm.NewBoxNamed("tqueue.back", []any(nil)),
	}
}

// Enqueue appends v to the queue.
func (q *Queue) Enqueue(tx mvstm.ReadWriter, v any) {
	back := tx.Read(q.back).([]any)
	next := make([]any, len(back), len(back)+1)
	copy(next, back)
	tx.Write(q.back, append(next, v))
}

// Dequeue removes and returns the oldest element, or ok == false when the
// queue is empty.
func (q *Queue) Dequeue(tx mvstm.ReadWriter) (v any, ok bool) {
	front := tx.Read(q.front).([]any)
	if len(front) == 0 {
		back := tx.Read(q.back).([]any)
		if len(back) == 0 {
			return nil, false
		}
		// Reverse the back list into the front list.
		front = make([]any, len(back))
		for i, x := range back {
			front[len(back)-1-i] = x
		}
		tx.Write(q.back, []any(nil))
	}
	v = front[len(front)-1]
	next := make([]any, len(front)-1)
	copy(next, front[:len(front)-1])
	tx.Write(q.front, next)
	return v, true
}

// Len returns the number of queued elements.
func (q *Queue) Len(tx mvstm.ReadWriter) int {
	return len(tx.Read(q.front).([]any)) + len(tx.Read(q.back).([]any))
}

// Counter is a sharded transactional counter: increments touch a single
// shard (chosen by the caller-provided hint), so concurrent incrementers
// conflict only when they collide on a shard; Sum reads all shards.
type Counter struct {
	shards []*mvstm.VBox
}

// NewCounter creates a counter with the given shard count (rounded up to 1).
func NewCounter(stm *mvstm.STM, shards int) *Counter {
	if shards < 1 {
		shards = 1
	}
	c := &Counter{shards: make([]*mvstm.VBox, shards)}
	for i := range c.shards {
		c.shards[i] = stm.NewBoxNamed(fmt.Sprintf("tcounter.s%d", i), 0)
	}
	return c
}

// Add adds delta to the shard selected by hint (e.g. a goroutine or flow
// id); any hint value is valid.
func (c *Counter) Add(tx mvstm.ReadWriter, hint int, delta int) {
	if hint < 0 {
		hint = -hint
	}
	s := c.shards[hint%len(c.shards)]
	tx.Write(s, tx.Read(s).(int)+delta)
}

// Sum returns the counter's total.
func (c *Counter) Sum(tx mvstm.ReadWriter) int {
	total := 0
	for _, s := range c.shards {
		total += tx.Read(s).(int)
	}
	return total
}
