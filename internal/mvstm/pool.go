package mvstm

// Txn recycling. Transactions are recycled through a sync.Pool, and a
// recycled Txn keeps the storage of its read and write sets (BoxSet.Empty):
// a transaction allocates no set storage unless it spills further than the
// Txn's earlier users did.

// getTxn fetches a recycled (or new) transaction object. Released objects
// come back with empty sets.
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
	t.reads.Empty()
	t.writes.Empty()
	t.ts = 0
	t.stm.txnPool.Put(t)
}
