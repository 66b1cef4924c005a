// Package wtftm is a Go implementation of transactional futures: futures
// whose bodies execute as atomic sub-transactions of the software-memory
// transaction that spawned them. It reproduces the system of
//
//	Zeng, Issa, Romano, Rodrigues, Haridi.
//	"Investigating the Semantics of Futures in Transactional Memory
//	Systems". PPoPP 2021. https://doi.org/10.1145/3437801.3441594
//
// The package is a thin, documented facade over the implementation
// packages: internal/mvstm (a JVSTM-style multi-versioned STM) and
// internal/core (WTF-TM, the graph-based transactional-futures engine).
//
// # Quick start
//
//	stm := wtftm.NewSTM()
//	sys := wtftm.NewSystem(stm, wtftm.Options{Ordering: wtftm.WO})
//	balance := wtftm.NewBox(stm, 100)
//
//	err := sys.Atomic(func(tx *wtftm.Tx) error {
//		f := tx.Submit(func(ftx *wtftm.Tx) (any, error) {
//			balance.Write(ftx, balance.Read(ftx)+10) // runs in parallel
//			return nil, nil
//		})
//		// ... continuation work, atomic w.r.t. the future ...
//		_, err := tx.Evaluate(f)
//		return err
//	})
//
// # Semantics
//
// Ordering selects when a future serializes relative to its continuation:
// WO (weakly ordered — at its submission or its evaluation, whichever
// validates) or SO (strongly ordered — always at submission, i.e. the
// program behaves exactly like its future-free elision; the JTF baseline).
//
// Atomicity selects how futures that escape their top-level transaction
// behave: LAC implicitly evaluates them at the spawner's commit; GAC lets
// the spawner commit immediately and validates the escaped execution at its
// eventual evaluation inside another transaction.
//
// Beyond the paper's API: Tx.ForkJoin provides classic parallel nesting as
// the blocking restriction of futures, and the wtftm/tstruct package provides
// transactional data structures (map, queue, counter) built on the same
// versioned boxes.
package wtftm

import (
	"wtftm/internal/core"
	"wtftm/internal/history"
	"wtftm/internal/mvstm"
)

// Re-exported types. See the internal packages for the full method sets.
type (
	// STM is a multi-versioned software transactional memory instance.
	STM = mvstm.STM
	// VBox is a versioned transactional box (untyped).
	VBox = mvstm.VBox
	// Version is one committed version of a box.
	Version = mvstm.Version
	// Txn is a plain (futures-less) MV-STM transaction.
	Txn = mvstm.Txn
	// Box is the typed convenience wrapper over VBox.
	Box[T any] = mvstm.Box[T]
	// ReadWriter is anything boxes can be accessed through: *Txn or *Tx.
	ReadWriter = mvstm.ReadWriter
	// STMStats are the MV-STM substrate's monotonic counters, as returned
	// by STM.Stats: commit/conflict/begin totals plus the commit pipeline's
	// HelpedCommits and CommitQueueHWM (DESIGN.md §6).
	STMStats = mvstm.Stats
	// STMStatsSnapshot is a point-in-time copy of STMStats, so callers
	// (e.g. the wtfd stats endpoint) can read the substrate counters
	// without importing internal/mvstm.
	STMStatsSnapshot = mvstm.StatsSnapshot

	// System is the transactional-futures engine (WTF-TM).
	System = core.System
	// Tx is the in-transaction handle: Read, Write, Submit, Evaluate.
	Tx = core.Tx
	// Future is a transactional future handle.
	Future = core.Future
	// Options configures a System.
	Options = core.Options
	// Ordering selects WO or SO serialization-order semantics.
	Ordering = core.Ordering
	// Atomicity selects LAC or GAC escaping-future semantics.
	Atomicity = core.Atomicity
	// Stats are the engine's monotonic counters.
	Stats = core.Stats
	// StatsSnapshot is a point-in-time copy of Stats.
	StatsSnapshot = core.StatsSnapshot

	// Recorder captures a totally ordered operation log for FSG-based
	// verification (see internal/fsg and cmd/fsgcheck).
	Recorder = history.Recorder
)

// Semantics constants.
const (
	// WO: weakly ordered transactional futures.
	WO = core.WO
	// SO: strongly ordered transactional futures.
	SO = core.SO
	// LAC: locally atomic continuations.
	LAC = core.LAC
	// GAC: globally atomic continuations.
	GAC = core.GAC
)

// Re-exported errors.
var (
	// ErrConflict reports an MV-STM read-set validation failure.
	ErrConflict = mvstm.ErrConflict
	// ErrStaleFuture reports evaluation of a future whose spawning
	// transaction aborted permanently.
	ErrStaleFuture = core.ErrStaleFuture
	// ErrRetriesExhausted reports that Options.MaxRetries was exceeded.
	ErrRetriesExhausted = core.ErrRetriesExhausted
)

// NewSTM creates an empty multi-versioned STM.
func NewSTM() *STM { return mvstm.New() }

// NewSystem creates a transactional-futures engine over stm.
func NewSystem(stm *STM, opts Options) *System { return core.New(stm, opts) }

// NewBox creates a typed transactional box with the given initial value.
func NewBox[T any](stm *STM, init T) Box[T] { return mvstm.NewTyped(stm, init) }

// NewBoxNamed is NewBox with a debugging label (labels also name the shared
// variables in recorded histories).
func NewBoxNamed[T any](stm *STM, name string, init T) Box[T] {
	return mvstm.NewTypedNamed(stm, name, init)
}

// NewRecorder creates an empty history recorder to pass in Options.Recorder.
func NewRecorder() *Recorder { return history.NewRecorder() }
