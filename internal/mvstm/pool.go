package mvstm

// Txn recycling and the allocation-free read/write set representations.
//
// The seed implementation allocated two maps per Begin and another per
// commit; at millions of transactions per second that allocation churn
// dominated the Begin/finish path. Transactions are now recycled through a
// sync.Pool: the read set, which is only Read's (CommitValidating checks
// reads kept elsewhere in place), starts as a small inline array that spills
// to a map only past readInlineCap distinct boxes, and the write set keeps the
// ordered-slice+map hybrid but reuses both containers across transactions.

// readInlineCap is the number of distinct boxes a read set holds before
// spilling to a map. Linear dedup over the inline array is cheaper than map
// operations for the short read sets typical of OLTP-style transactions.
const readInlineCap = 16

// noteRead records b in the read set, deduplicating.
func (t *Txn) noteRead(b *VBox) {
	if t.readsMap != nil {
		t.readsMap[b] = struct{}{}
		return
	}
	for i := 0; i < t.readsN; i++ {
		if t.readsInline[i] == b {
			return
		}
	}
	if t.readsN < readInlineCap {
		t.readsInline[t.readsN] = b
		t.readsN++
		return
	}
	// Spill: move the inline entries into a map and clear the array so the
	// two representations never hold overlapping entries.
	t.readsMap = make(map[*VBox]struct{}, 2*readInlineCap)
	for i := 0; i < t.readsN; i++ {
		t.readsMap[t.readsInline[i]] = struct{}{}
		t.readsInline[i] = nil
	}
	t.readsN = 0
	t.readsMap[b] = struct{}{}
}

// validateReads checks that every box in the read set is still current at
// the transaction's snapshot: no box may carry a committed version newer
// than snap (first committer wins). It returns nil when the read set is
// valid, or the first stale box found — the box whose newer committed
// version kills this transaction — for abort attribution.
func (t *Txn) validateReads() *VBox {
	for i := 0; i < t.readsN; i++ {
		if b := t.readsInline[i]; b.head.Load().TS > t.snap {
			return b
		}
	}
	for b := range t.readsMap {
		if b.head.Load().TS > t.snap {
			return b
		}
	}
	return nil
}

// hasReads reports whether the read set is non-empty.
func (t *Txn) hasReads() bool { return t.readsN > 0 || len(t.readsMap) > 0 }

// getTxn fetches a recycled (or new) transaction object. Released objects
// come back with clean, pre-sized containers.
func (s *STM) getTxn() *Txn {
	t := s.txnPool.Get().(*Txn)
	t.done = false
	return t
}

// Release returns the transaction object to its STM's pool for reuse. It is
// optional: transactions that are never released are simply collected by the
// garbage collector. Callers that do release must not touch the Txn again
// afterwards — not even CommitTS; copy what you need first. A transaction
// that is still running is discarded.
//
// Atomic releases the transactions it creates; long-lived engines (the WTF-TM
// core) release explicitly on their commit/abort paths.
func (t *Txn) Release() {
	if !t.done {
		t.Discard()
	}
	for i := 0; i < t.readsN; i++ {
		t.readsInline[i] = nil
	}
	t.readsN = 0
	clear(t.readsMap) // keep the spilled map's capacity for the next user
	clear(t.writes)
	clear(t.writeOrder)
	t.writeOrder = t.writeOrder[:0]
	t.ts = 0
	t.stm.txnPool.Put(t)
}
