package tstruct

import (
	"fmt"
	"testing"

	"wtftm/internal/mvstm"
)

// benchEntries are the three bucket occupancies wtfd serves: multi-hot
// (~1 key per bucket), mixed-durable (~16) and get-heavy (128).
var benchEntries = []int{1, 16, 128}

// benchBuckets is wtfd's default keyspace: 16 shards of 64 buckets, here
// one map, so the key count (and the cache footprint) matches the workload.
const benchBuckets = 16 * 64

// benchMap fills a benchBuckets-bucket map with perBucket keys per bucket on
// average and returns the keys, as strings and as wire-style byte slices.
func benchMap(b *testing.B, perBucket int) (*mvstm.STM, *Map, []string, [][]byte) {
	b.Helper()
	stm := mvstm.New()
	m := NewMapNamed(stm, "bench", benchBuckets)
	n := benchBuckets * perBucket
	keys := make([]string, n)
	raw := make([][]byte, n)
	kvs := make([]KV, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%010d", i)
		raw[i] = []byte(keys[i])
		kvs[i] = KV{Key: keys[i], Val: "value"}
	}
	// Small loading transactions: a pooled Txn keeps its write-set capacity,
	// and clearing one that wrote every bucket would dominate BenchmarkMapPut.
	for i := 0; i < n; i += 8 {
		if err := stm.Atomic(func(tx *mvstm.Txn) error { m.Restore(tx, kvs[i:i+8]); return nil }); err != nil {
			b.Fatal(err)
		}
	}
	return stm, m, keys, raw
}

// BenchmarkMapGetFast is a served fast-path GET: the key still a byte slice,
// the bucket read through mvstm.ReadLatest. Keys are visited with an odd
// stride modulo the (power-of-two) key count, so consecutive reads land in
// unrelated buckets and every key is read.
func BenchmarkMapGetFast(b *testing.B) {
	for _, per := range benchEntries {
		b.Run(fmt.Sprintf("entries=%d", per), func(b *testing.B) {
			_, m, _, raw := benchMap(b, per)
			b.ReportAllocs()
			b.ResetTimer()
			for i, k := 0, 0; i < b.N; i++ {
				if _, found, _, ok := m.GetFastBytes(raw[k]); !ok || !found {
					b.Fatalf("GetFastBytes(%s) = found %v, ok %v", raw[k], found, ok)
				}
				k = (k + 7919) & (len(raw) - 1)
			}
		})
	}
}

// BenchmarkMapPut is a served PUT of an existing key: one transaction that
// reads and rewrites the key's bucket, committed through the substrate.
func BenchmarkMapPut(b *testing.B) {
	var val any = "value"
	for _, per := range benchEntries {
		b.Run(fmt.Sprintf("entries=%d", per), func(b *testing.B) {
			stm, m, keys, _ := benchMap(b, per)
			b.ReportAllocs()
			b.ResetTimer()
			for i, k := 0, 0; i < b.N; i++ {
				tx := stm.Begin()
				m.Put(tx, keys[k], val)
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
				tx.Release()
				k = (k + 7919) & (len(keys) - 1)
			}
		})
	}
}
