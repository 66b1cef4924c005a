package tstruct

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"wtftm/internal/core"
	"wtftm/internal/mvstm"
)

func runTx(t *testing.T, stm *mvstm.STM, fn func(*mvstm.Txn) error) {
	t.Helper()
	if err := stm.Atomic(fn); err != nil {
		t.Fatal(err)
	}
}

func TestMapBasic(t *testing.T) {
	stm := mvstm.New()
	m := NewMap(stm, 8)
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if !m.Put(tx, "a", 1) {
			t.Error("Put of new key returned false")
		}
		if m.Put(tx, "a", 2) {
			t.Error("overwrite returned true")
		}
		if v, ok := m.Get(tx, "a"); !ok || v != 2 {
			t.Errorf("Get = (%v, %v)", v, ok)
		}
		if _, ok := m.Get(tx, "missing"); ok {
			t.Error("phantom key")
		}
		if m.Len(tx) != 1 {
			t.Errorf("Len = %d", m.Len(tx))
		}
		if !m.Delete(tx, "a") {
			t.Error("Delete returned false")
		}
		if m.Delete(tx, "a") {
			t.Error("double delete returned true")
		}
		if m.Len(tx) != 0 {
			t.Errorf("Len after delete = %d", m.Len(tx))
		}
		return nil
	})
}

func TestMapManyKeysAcrossBuckets(t *testing.T) {
	stm := mvstm.New()
	m := NewMap(stm, 4)
	const n = 200
	runTx(t, stm, func(tx *mvstm.Txn) error {
		for i := 0; i < n; i++ {
			m.Put(tx, fmt.Sprintf("k%d", i), i)
		}
		return nil
	})
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if m.Len(tx) != n {
			t.Errorf("Len = %d", m.Len(tx))
		}
		for i := 0; i < n; i += 17 {
			if v, ok := m.Get(tx, fmt.Sprintf("k%d", i)); !ok || v != i {
				t.Errorf("k%d = (%v, %v)", i, v, ok)
			}
		}
		seen := 0
		m.ForEach(tx, func(string, any) bool { seen++; return true })
		if seen != n {
			t.Errorf("ForEach visited %d", seen)
		}
		seen = 0
		m.ForEach(tx, func(string, any) bool { seen++; return seen < 5 })
		if seen != 5 {
			t.Errorf("early stop visited %d", seen)
		}
		return nil
	})
}

func TestMapSnapshotIsolation(t *testing.T) {
	stm := mvstm.New()
	m := NewMap(stm, 4)
	runTx(t, stm, func(tx *mvstm.Txn) error { m.Put(tx, "x", "old"); return nil })
	early := stm.Begin()
	runTx(t, stm, func(tx *mvstm.Txn) error { m.Put(tx, "x", "new"); return nil })
	if v, _ := m.Get(early, "x"); v != "old" {
		t.Fatalf("snapshot read = %v", v)
	}
	early.Discard()
}

func TestMapConcurrentDisjointKeys(t *testing.T) {
	stm := mvstm.New()
	m := NewMap(stm, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := stm.Atomic(func(tx *mvstm.Txn) error {
					m.Put(tx, key, g*100+i)
					return nil
				}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if m.Len(tx) != 160 {
			t.Errorf("Len = %d, want 160", m.Len(tx))
		}
		return nil
	})
}

func TestMapWithFutures(t *testing.T) {
	stm := mvstm.New()
	sys := core.New(stm, core.Options{Ordering: core.WO})
	m := NewMap(stm, 32)
	err := sys.Atomic(func(tx *core.Tx) error {
		var futs []*core.Future
		for i := 0; i < 8; i++ {
			i := i
			futs = append(futs, tx.Submit(func(ftx *core.Tx) (any, error) {
				m.Put(ftx, fmt.Sprintf("f%d", i), i)
				return nil, nil
			}))
		}
		for _, f := range futs {
			if _, err := tx.Evaluate(f); err != nil {
				return err
			}
		}
		if got := m.Len(tx); got != 8 {
			return fmt.Errorf("Len inside txn = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	stm := mvstm.New()
	q := NewQueue(stm)
	runTx(t, stm, func(tx *mvstm.Txn) error {
		for i := 1; i <= 5; i++ {
			q.Enqueue(tx, i)
		}
		if q.Len(tx) != 5 {
			t.Errorf("Len = %d", q.Len(tx))
		}
		return nil
	})
	runTx(t, stm, func(tx *mvstm.Txn) error {
		for i := 1; i <= 5; i++ {
			v, ok := q.Dequeue(tx)
			if !ok || v != i {
				t.Errorf("Dequeue = (%v, %v), want %d", v, ok, i)
			}
		}
		if _, ok := q.Dequeue(tx); ok {
			t.Error("Dequeue from empty returned ok")
		}
		return nil
	})
}

func TestQueueInterleavedOps(t *testing.T) {
	stm := mvstm.New()
	q := NewQueue(stm)
	runTx(t, stm, func(tx *mvstm.Txn) error {
		q.Enqueue(tx, "a")
		q.Enqueue(tx, "b")
		if v, _ := q.Dequeue(tx); v != "a" {
			t.Errorf("got %v", v)
		}
		q.Enqueue(tx, "c")
		if v, _ := q.Dequeue(tx); v != "b" {
			t.Errorf("got %v", v)
		}
		if v, _ := q.Dequeue(tx); v != "c" {
			t.Errorf("got %v", v)
		}
		return nil
	})
}

func TestQueuePropertyFIFO(t *testing.T) {
	f := func(ops []uint8) bool {
		stm := mvstm.New()
		q := NewQueue(stm)
		var model []int
		ok := true
		err := stm.Atomic(func(tx *mvstm.Txn) error {
			for i, op := range ops {
				if op%3 != 0 {
					q.Enqueue(tx, i)
					model = append(model, i)
				} else {
					v, got := q.Dequeue(tx)
					if len(model) == 0 {
						if got {
							ok = false
						}
					} else {
						if !got || v != model[0] {
							ok = false
						}
						model = model[1:]
					}
				}
			}
			if q.Len(tx) != len(model) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterShardsReduceConflicts(t *testing.T) {
	stm := mvstm.New()
	c := NewCounter(stm, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := stm.Atomic(func(tx *mvstm.Txn) error {
					c.Add(tx, g, 1)
					return nil
				}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if got := c.Sum(tx); got != 200 {
			t.Errorf("Sum = %d, want 200", got)
		}
		return nil
	})
	// Disjoint shard hints must not have conflicted at all.
	if got := stm.Stats().Conflicts.Load(); got != 0 {
		t.Fatalf("sharded counter conflicted %d times", got)
	}
}

func TestCounterNegativeHint(t *testing.T) {
	stm := mvstm.New()
	c := NewCounter(stm, 4)
	runTx(t, stm, func(tx *mvstm.Txn) error {
		c.Add(tx, -7, 3)
		if c.Sum(tx) != 3 {
			t.Errorf("Sum = %d", c.Sum(tx))
		}
		return nil
	})
}

func TestSetSemantics(t *testing.T) {
	stm := mvstm.New()
	s := NewSet(stm, 8)
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if !s.Add(tx, "a") || s.Add(tx, "a") {
			t.Error("Add semantics wrong")
		}
		if !s.Contains(tx, "a") || s.Contains(tx, "b") {
			t.Error("Contains wrong")
		}
		if s.Len(tx) != 1 {
			t.Errorf("Len = %d", s.Len(tx))
		}
		if !s.Remove(tx, "a") || s.Remove(tx, "a") {
			t.Error("Remove semantics wrong")
		}
		return nil
	})
}

func TestMinimumSizes(t *testing.T) {
	stm := mvstm.New()
	m := NewMap(stm, 0)
	q := NewCounter(stm, 0)
	runTx(t, stm, func(tx *mvstm.Txn) error {
		m.Put(tx, "k", 1)
		q.Add(tx, 0, 1)
		return nil
	})
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if v, ok := m.Get(tx, "k"); !ok || v != 1 {
			t.Errorf("single-bucket map broken: (%v,%v)", v, ok)
		}
		if q.Sum(tx) != 1 {
			t.Error("single-shard counter broken")
		}
		return nil
	})
}

func TestMapSnapshotRestore(t *testing.T) {
	stm := mvstm.New()
	src := NewMapNamed(stm, "src", 8)
	runTx(t, stm, func(tx *mvstm.Txn) error {
		for i := 0; i < 50; i++ {
			src.Put(tx, fmt.Sprintf("k%02d", i), i)
		}
		return nil
	})
	var kvs []KV
	runTx(t, stm, func(tx *mvstm.Txn) error {
		kvs = src.Snapshot(tx, kvs[:0])
		return nil
	})
	if len(kvs) != 50 {
		t.Fatalf("Snapshot returned %d entries, want 50", len(kvs))
	}

	// Restore into a map that already holds overlapping entries: later
	// duplicates win, size counts only genuinely new keys.
	dst := NewMapNamed(stm, "dst", 4) // different bucket count on purpose
	runTx(t, stm, func(tx *mvstm.Txn) error {
		dst.Put(tx, "k00", "stale")
		dst.Put(tx, "extra", true)
		return nil
	})
	runTx(t, stm, func(tx *mvstm.Txn) error {
		dst.Restore(tx, kvs)
		return nil
	})
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if n := dst.Len(tx); n != 51 {
			t.Errorf("Len after restore = %d, want 51", n)
		}
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("k%02d", i)
			if v, ok := dst.Get(tx, k); !ok || v != i {
				t.Errorf("restored %s = (%v, %v), want %d", k, v, ok, i)
			}
		}
		if _, ok := dst.Get(tx, "extra"); !ok {
			t.Error("pre-existing entry lost by Restore")
		}
		return nil
	})

	// Duplicates inside one Restore call: last wins, counted once.
	dup := NewMapNamed(stm, "dup", 2)
	runTx(t, stm, func(tx *mvstm.Txn) error {
		dup.Restore(tx, []KV{{Key: "a", Val: 1}, {Key: "a", Val: 2}})
		return nil
	})
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if v, _ := dup.Get(tx, "a"); v != 2 {
			t.Errorf("duplicate restore kept %v, want 2", v)
		}
		if dup.Len(tx) != 1 {
			t.Errorf("duplicate restore Len = %d, want 1", dup.Len(tx))
		}
		return nil
	})

	// Restore(nil) is a no-op, not a panic.
	runTx(t, stm, func(tx *mvstm.Txn) error {
		dup.Restore(tx, nil)
		return nil
	})
}

func TestMapGetFast(t *testing.T) {
	stm := mvstm.New()
	m := NewMap(stm, 4)
	if _, found, retries, ok := m.GetFastBytes([]byte("a")); !ok || found || retries != 0 {
		t.Fatalf("GetFastBytes on empty map: found=%v retries=%d ok=%v", found, retries, ok)
	}
	runTx(t, stm, func(tx *mvstm.Txn) error {
		m.Put(tx, "a", "one")
		m.Put(tx, "b", "two")
		return nil
	})
	if v, found, _, ok := m.GetFastBytes([]byte("a")); !ok || !found || v != "one" {
		t.Fatalf("GetFastBytes(a) = (%v, %v, ok=%v)", v, found, ok)
	}
	runTx(t, stm, func(tx *mvstm.Txn) error { m.Delete(tx, "a"); return nil })
	if _, found, _, ok := m.GetFastBytes([]byte("a")); !ok || found {
		t.Fatalf("GetFastBytes after delete: found=%v ok=%v", found, ok)
	}
	if v, found, _, ok := m.GetFastBytes([]byte("b")); !ok || !found || v != "two" {
		t.Fatalf("GetFastBytes(b) = (%v, %v, ok=%v)", v, found, ok)
	}
}

// TestMapGetFastMatchesTransactionalGet cross-checks the fast path against
// the transactional read under concurrent writers: any value GetFastBytes
// returns must be one a snapshot transaction could also have observed
// (per-key monotonically increasing, never ahead of the issuing writer).
func TestMapGetFastMatchesTransactionalGet(t *testing.T) {
	stm := mvstm.New()
	m := NewMap(stm, 4)
	const keys = 8
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	runTx(t, stm, func(tx *mvstm.Txn) error {
		for i := 0; i < keys; i++ {
			m.Put(tx, key(i), 0)
		}
		return nil
	})

	var writerWg, readerWg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < 300; i++ {
				k := key((w*keys/2 + i) % keys)
				runTx(t, stm, func(tx *mvstm.Txn) error {
					v, _ := m.Get(tx, k)
					m.Put(tx, k, v.(int)+1)
					return nil
				})
			}
		}(w)
	}
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		last := map[string]int{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < keys; i++ {
				k := key(i)
				v, found, _, ok := m.GetFastBytes([]byte(k))
				if !ok {
					continue
				}
				if !found {
					t.Errorf("key %s vanished", k)
					return
				}
				if n := v.(int); n < last[k] {
					t.Errorf("key %s went backwards: %d -> %d", k, last[k], n)
					return
				} else {
					last[k] = n
				}
			}
		}
	}()
	// Writers drain first, then the reader gets the stop signal.
	writerWg.Wait()
	close(stop)
	readerWg.Wait()
}
