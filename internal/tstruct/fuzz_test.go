package tstruct

import (
	"fmt"
	"testing"

	"wtftm/internal/mvstm"
)

// FuzzQueueFIFO checks the two-list queue against a slice model.
func FuzzQueueFIFO(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 0, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 512 {
			tape = tape[:512]
		}
		stm := mvstm.New()
		q := NewQueue(stm)
		var model []int
		err := stm.Atomic(func(tx *mvstm.Txn) error {
			for i, b := range tape {
				if b%2 == 0 {
					q.Enqueue(tx, i)
					model = append(model, i)
				} else {
					v, ok := q.Dequeue(tx)
					if len(model) == 0 {
						if ok {
							t.Fatal("dequeue from empty succeeded")
						}
						continue
					}
					if !ok || v != model[0] {
						t.Fatalf("Dequeue = (%v,%v), want %d", v, ok, model[0])
					}
					model = model[1:]
				}
			}
			if q.Len(tx) != len(model) {
				t.Fatalf("Len = %d, model = %d", q.Len(tx), len(model))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzMapAgainstModel drives the hash map with an op tape and checks it
// against a Go map plus the trie's invariants. With one or two buckets a
// bucket grows to hundreds of keys, splits, and is deleted back to empty;
// the Snapshot → Restore op continues the tape on the restored copy. Each
// op is two bytes: op = b0&7, key index = (b0>>7)<<8 | b1 (512 keys).
func FuzzMapAgainstModel(f *testing.F) {
	fill, drain := []byte{}, []byte{}
	for hi := 0; hi < 2; hi++ {
		for lo := 0; lo < 256; lo += 64 {
			fill = append(fill, byte(hi<<7|5), byte(lo))
			drain = append(drain, byte(hi<<7|6), byte(lo))
		}
	}
	grow := append(append(append([]byte{}, fill...), 7, 0), drain...)
	f.Add(grow, false)
	f.Add(grow, true)
	f.Add([]byte{0, 1, 1, 2, 3, 1, 4, 2, 5, 9, 7, 0, 3, 9, 6, 0, 128, 255}, false)
	f.Fuzz(func(t *testing.T, tape []byte, twoBuckets bool) {
		if len(tape) > 256 {
			tape = tape[:256]
		}
		buckets := 1
		if twoBuckets {
			buckets = 2
		}
		stm := mvstm.New()
		m := NewMapNamed(stm, "m0", buckets)
		model := make(map[string]int)
		key := func(k int) string { return fmt.Sprintf("key%03d", k%512) }
		for i := 0; i+1 < len(tape); i += 2 {
			op, k := tape[i]&7, int(tape[i]>>7)<<8|int(tape[i+1])
			if op == 7 {
				var kvs []KV
				runTx(t, stm, func(tx *mvstm.Txn) error { kvs = m.Snapshot(tx, nil); return nil })
				if len(kvs) != len(model) {
					t.Fatalf("op %d: Snapshot has %d entries, model %d", i, len(kvs), len(model))
				}
				m = NewMapNamed(stm, fmt.Sprintf("m%d", i), buckets)
				runTx(t, stm, func(tx *mvstm.Txn) error { m.Restore(tx, kvs); return nil })
			}
			runTx(t, stm, func(tx *mvstm.Txn) error {
				switch op {
				case 0, 1, 2:
					_, had := model[key(k)]
					if added := m.Put(tx, key(k), i); added == had {
						t.Fatalf("op %d: Put(%s) added = %v, model had it: %v", i, key(k), added, had)
					}
					model[key(k)] = i
				case 3, 4:
					_, had := model[key(k)]
					if got := m.Delete(tx, key(k)); got != had {
						t.Fatalf("op %d: Delete(%s) = %v, model had it: %v", i, key(k), got, had)
					}
					delete(model, key(k))
				case 5:
					for j := k; j < k+64; j++ {
						m.Put(tx, key(j), i)
						model[key(j)] = i
					}
				case 6:
					for j := k; j < k+64; j++ {
						m.Delete(tx, key(j))
						delete(model, key(j))
					}
				}
				return nil
			})
			checkMap(t, stm, m, model)
		}
	})
}

// checkMap holds m against model through every read path and checks each
// bucket's trie.
func checkMap(t *testing.T, stm *mvstm.STM, m *Map, model map[string]int) {
	t.Helper()
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if n := m.Len(tx); n != len(model) {
			t.Fatalf("Len = %d, model %d", n, len(model))
		}
		for k := 0; k < 512; k++ {
			key := fmt.Sprintf("key%03d", k)
			want, in := model[key]
			if v, ok := m.Get(tx, key); ok != in || (in && v != want) {
				t.Fatalf("Get(%s) = (%v, %v), model (%v, %v)", key, v, ok, want, in)
			}
			if v, found, _, ok := m.GetFastBytes([]byte(key)); !ok || found != in || (in && v != want) {
				t.Fatalf("GetFastBytes(%s) = (%v, %v, ok %v), model (%v, %v)", key, v, found, ok, want, in)
			}
		}
		seen := 0
		m.ForEach(tx, func(key string, val any) bool {
			if val != model[key] {
				t.Fatalf("ForEach %s = %v, model %v", key, val, model[key])
			}
			seen++
			return true
		})
		if seen != len(model) {
			t.Fatalf("ForEach visited %d, model %d", seen, len(model))
		}
		for _, b := range m.buckets {
			if err := checkTrie(tx.Read(b), &m.seed); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	})
}
