// Package tstruct exposes the transactional data structures of
// wtftm/internal/tstruct as public API: a hash map, a FIFO queue and a
// sharded counter, all built on versioned boxes and usable from plain
// transactions and transactional futures alike.
//
//	stm := wtftm.NewSTM()
//	sys := wtftm.NewSystem(stm, wtftm.Options{})
//	m := tstruct.NewMap(stm, 64)
//	_ = sys.Atomic(func(tx *wtftm.Tx) error {
//		m.Put(tx, "answer", 42)
//		return nil
//	})
package tstruct

import internal "wtftm/internal/tstruct"

// Re-exported structure types; see the methods on each.
type (
	// Map is a transactional hash map (conflicts are per bucket).
	Map = internal.Map
	// Queue is a transactional FIFO queue (two-list representation).
	Queue = internal.Queue
	// Counter is a sharded transactional counter.
	Counter = internal.Counter
)

// Constructors.
var (
	// NewMap creates a map with the given bucket count.
	NewMap = internal.NewMap
	// NewQueue creates an empty queue.
	NewQueue = internal.NewQueue
	// NewCounter creates a counter with the given shard count.
	NewCounter = internal.NewCounter
)
