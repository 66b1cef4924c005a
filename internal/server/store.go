package server

import (
	"fmt"

	"wtftm"
	"wtftm/internal/tstruct"
	"wtftm/internal/wire"
)

// store is wtfd's keyspace: a fixed set of shard-partitioned transactional
// maps over versioned boxes. Keys hash to one shard; a MULTI batch touching
// k shards fans out as k transactional futures, one per shard, so the
// per-shard work runs in parallel inside one atomic request.
//
// Values are stored as Go strings (immutable), so a committed value handed
// to a response writer can never be mutated by a later transaction — new
// values install new versions instead. Together with the MV-STM's snapshot
// reads this makes the post-commit hand-off privatization-safe (DESIGN.md
// §7).
type store struct {
	shards []*tstruct.Map
}

func newStore(stm *wtftm.STM, shards, buckets int) *store {
	st := &store{shards: make([]*tstruct.Map, shards)}
	for i := range st.shards {
		// Unique per-shard box names keep recorded histories (Config.
		// Recorder) attributable: the FSG oracle must see shard 0's bucket
		// and shard 1's bucket as different variables.
		st.shards[i] = tstruct.NewMapNamed(stm, fmt.Sprintf("shard%d", i), buckets)
	}
	return st
}

// fnv1a is FNV-1a over a key, as a string or still in its wire buffer (the
// same hash values hash/fnv produces, stable across restarts so logs and
// traces stay comparable, without the hash.Hash allocation risk on the
// zero-alloc read fast path).
func fnv1a[K ~string | ~[]byte](key K) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// shardOf maps a key to its shard.
func (st *store) shardOf(key string) int { return int(fnv1a(key) % uint32(len(st.shards))) }

// shardOfBytes is shardOf over a key still in its wire buffer: same shard
// assignment, no string.
func (st *store) shardOfBytes(key []byte) int { return int(fnv1a(key) % uint32(len(st.shards))) }

// getFastBytes serves one GET against shard sh outside any transaction, via
// the map's lock-free read path (tstruct.Map.GetFastBytes over
// mvstm.ReadLatest). The read loop hands the key down as the payload
// subslice it decoded, and the hash, bucket lookup and entry comparisons all
// run over the bytes. ok == false means the retry budget was exhausted by
// concurrent version trims and the caller must fall back to a transactional
// read.
func (st *store) getFastBytes(sh int, key []byte) (val string, found bool, retries int, ok bool) {
	v, found, retries, ok := st.shards[sh].GetFastBytes(key)
	if !ok || !found {
		return "", found, retries, ok
	}
	return v.(string), true, retries, true
}

// apply executes one command against shard sh — the shard of c.Key, which
// the pipeline's plan already found — through rw (a plain MV-STM transaction
// or a futures-engine Tx — both work, which is what lets single ops run
// inline and MULTI groups run inside future bodies).
//
// CAS never writes on a mismatch, so a mismatched command contributes no
// write to its transaction: the all-or-nothing MULTI rule only needs the
// caller to abort the transaction when any result is StatusCASMismatch.
func (st *store) apply(rw wtftm.ReadWriter, sh int, c *wire.Cmd) wire.Result {
	m := st.shards[sh]
	switch c.Op {
	case wire.OpGet:
		v, ok := m.Get(rw, c.Key)
		if !ok {
			return wire.Result{Status: wire.StatusNotFound}
		}
		return wire.ValResult([]byte(v.(string)))
	case wire.OpPut:
		m.Put(rw, c.Key, string(c.Val))
		return wire.OKResult()
	case wire.OpDel:
		if !m.Delete(rw, c.Key) {
			return wire.Result{Status: wire.StatusNotFound}
		}
		return wire.OKResult()
	case wire.OpCAS:
		cur, ok := m.Get(rw, c.Key)
		if c.ExpectPresent != ok || (ok && cur.(string) != string(c.Expect)) {
			res := wire.Result{Status: wire.StatusCASMismatch}
			if ok {
				res.Val, res.HasVal = []byte(cur.(string)), true
			}
			return res
		}
		m.Put(rw, c.Key, string(c.Val))
		return wire.OKResult()
	default:
		return wire.ErrResult(fmt.Sprintf("server: %v is not a store command", c.Op))
	}
}
