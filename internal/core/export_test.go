package core

import "wtftm/internal/mvstm"

// readEntries returns how many entries the flow's current vertex holds for
// b in its read set, and the last of them. Only the owning flow may call
// it while the vertex is active.
func (tx *Tx) readEntries(b *mvstm.VBox) (n int, obs readObs) {
	for rb, o := range tx.cur.reads.All() {
		if rb == b {
			n, obs = n+1, o
		}
	}
	return n, obs
}

// published returns how many times the flow's current vertex published b
// to forward validation: once per first read, and once more for a read
// whose lock-free path lost the race with a graph mutation. Only the owning
// flow may call it while the vertex is active.
func (tx *Tx) published(b *mvstm.VBox) int {
	n := 0
	if l := tx.cur.log.Load(); l != nil {
		for _, pb := range (*l)[:tx.cur.logN.Load()] {
			if pb == b {
				n++
			}
		}
	}
	return n
}
