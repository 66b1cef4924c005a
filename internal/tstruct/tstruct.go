// Package tstruct provides transactional data structures built on versioned
// boxes: a hash map, a FIFO queue, a sharded counter and a set. They compose
// with transactional futures exactly like raw boxes do — a future that
// touches a bucket conflicts only with sub-transactions touching the same
// bucket — making them the natural shared-state layer for the concurrent
// applications the paper's introduction motivates.
//
// All structures store immutable snapshots inside boxes (copy-on-write), so
// readers never observe partial updates and the MV-STM's version chains stay
// well-formed.
package tstruct

import (
	"fmt"
	"hash/maphash"

	"wtftm/internal/mvstm"
)

// Map is a transactional hash map with a fixed bucket count. Keys are
// strings; values are arbitrary. Operations conflict only when they touch
// the same bucket (or the size counter, for size-changing operations).
type Map struct {
	stm     *mvstm.STM
	buckets []*mvstm.VBox // each holds entries ([]mapEntry)
	size    *mvstm.VBox   // int
	seed    maphash.Seed
}

type mapEntry struct {
	key string
	val any
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
		m.buckets[i] = stm.NewBoxNamed(fmt.Sprintf("%s.b%d", name, i), []mapEntry(nil))
	}
	return m
}

func (m *Map) bucket(key string) *mvstm.VBox {
	return m.buckets[maphash.String(m.seed, key)%uint64(len(m.buckets))]
}

// Get returns the value for key and whether it is present.
func (m *Map) Get(tx mvstm.ReadWriter, key string) (any, bool) {
	for _, e := range tx.Read(m.bucket(key)).([]mapEntry) {
		if e.key == key {
			return e.val, true
		}
	}
	return nil, false
}

// GetFastBytes returns the value for key at the current commit clock without
// a transaction, via mvstm.ReadLatest on the key's bucket. The bucket slice
// is an immutable copy-on-write snapshot, so scanning it outside any
// transaction is safe. retries and ok relay ReadLatest's outcome: on !ok
// (retry budget exhausted by concurrent version trims) the caller must
// re-issue the read through a transaction; found is only meaningful when
// ok is true.
//
// The key is still a byte slice in its wire buffer: the bucket hash
// (maphash.Bytes equals maphash.String over the same bytes) and the entry
// comparisons run directly over the slice, so the caller materializes no key
// string — the last allocation on the serving read path.
func (m *Map) GetFastBytes(key []byte) (val any, found bool, retries int, ok bool) {
	b := m.buckets[maphash.Bytes(m.seed, key)%uint64(len(m.buckets))]
	v, retries, ok := m.stm.ReadLatest(b)
	if !ok {
		return nil, false, retries, false
	}
	for _, e := range v.([]mapEntry) {
		if e.key == string(key) {
			return e.val, true, retries, true
		}
	}
	return nil, false, retries, true
}

// Put stores val under key, returning whether the key was new.
func (m *Map) Put(tx mvstm.ReadWriter, key string, val any) bool {
	b := m.bucket(key)
	entries := tx.Read(b).([]mapEntry)
	for i, e := range entries {
		if e.key == key {
			next := make([]mapEntry, len(entries))
			copy(next, entries)
			next[i].val = val
			tx.Write(b, next)
			return false
		}
	}
	next := make([]mapEntry, len(entries), len(entries)+1)
	copy(next, entries)
	tx.Write(b, append(next, mapEntry{key: key, val: val}))
	tx.Write(m.size, tx.Read(m.size).(int)+1)
	return true
}

// Delete removes key, returning whether it was present.
func (m *Map) Delete(tx mvstm.ReadWriter, key string) bool {
	b := m.bucket(key)
	entries := tx.Read(b).([]mapEntry)
	for i, e := range entries {
		if e.key == key {
			next := make([]mapEntry, 0, len(entries)-1)
			next = append(next, entries[:i]...)
			next = append(next, entries[i+1:]...)
			tx.Write(b, next)
			tx.Write(m.size, tx.Read(m.size).(int)-1)
			return true
		}
	}
	return false
}

// Len returns the number of entries.
func (m *Map) Len(tx mvstm.ReadWriter) int { return tx.Read(m.size).(int) }

// ForEach visits every entry (bucket order); it reads every bucket, so the
// enclosing transaction conflicts with any concurrent size-changing writer.
func (m *Map) ForEach(tx mvstm.ReadWriter, fn func(key string, val any) bool) {
	for _, b := range m.buckets {
		for _, e := range tx.Read(b).([]mapEntry) {
			if !fn(e.key, e.val) {
				return
			}
		}
	}
}

// KV is one key-value pair, the unit of Snapshot/Restore bulk transfer.
type KV struct {
	Key string
	Val any
}

// Snapshot appends every entry to dst (bucket order) and returns it. Like
// ForEach it reads every bucket, so the enclosing transaction observes one
// consistent cut of the map — which is exactly what a durability checkpoint
// needs.
func (m *Map) Snapshot(tx mvstm.ReadWriter, dst []KV) []KV {
	for _, b := range m.buckets {
		for _, e := range tx.Read(b).([]mapEntry) {
			dst = append(dst, KV{Key: e.key, Val: e.val})
		}
	}
	return dst
}

// Restore bulk-inserts kvs (later duplicates win). It rebuilds each touched
// bucket once and writes the size box once, where n repeated Puts would copy
// the growing bucket n times and serialize every restore transaction on the
// size box — the difference between O(n) and O(n²) recovery.
func (m *Map) Restore(tx mvstm.ReadWriter, kvs []KV) {
	if len(kvs) == 0 {
		return
	}
	byBucket := make([][]KV, len(m.buckets))
	for _, kv := range kvs {
		i := maphash.String(m.seed, kv.Key) % uint64(len(m.buckets))
		byBucket[i] = append(byBucket[i], kv)
	}
	added := 0
	for i, batch := range byBucket {
		if len(batch) == 0 {
			continue
		}
		entries := tx.Read(m.buckets[i]).([]mapEntry)
		next := make([]mapEntry, len(entries), len(entries)+len(batch))
		copy(next, entries)
	insert:
		for _, kv := range batch {
			for j := range next {
				if next[j].key == kv.Key {
					next[j].val = kv.Val
					continue insert
				}
			}
			next = append(next, mapEntry{key: kv.Key, val: kv.Val})
			added++
		}
		tx.Write(m.buckets[i], next)
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

// Set is a transactional string set over Map.
type Set struct {
	m *Map
}

// NewSet creates a set with the given bucket count.
func NewSet(stm *mvstm.STM, buckets int) *Set {
	return &Set{m: NewMap(stm, buckets)}
}

// Add inserts key, reporting whether it was absent.
func (s *Set) Add(tx mvstm.ReadWriter, key string) bool { return s.m.Put(tx, key, struct{}{}) }

// Remove deletes key, reporting whether it was present.
func (s *Set) Remove(tx mvstm.ReadWriter, key string) bool { return s.m.Delete(tx, key) }

// Contains reports membership.
func (s *Set) Contains(tx mvstm.ReadWriter, key string) bool {
	_, ok := s.m.Get(tx, key)
	return ok
}

// Len returns the set's cardinality.
func (s *Set) Len(tx mvstm.ReadWriter) int { return s.m.Len(tx) }
