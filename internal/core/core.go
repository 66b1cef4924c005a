// Package core implements WTF-TM, the transactional-futures engine of
// "Investigating the Semantics of Futures in Transactional Memory Systems"
// (Zeng et al., PPoPP 2021), on top of the multi-versioned STM in
// internal/mvstm.
//
// A transactional future is a parallel task whose body executes as an
// atomic (sub-)transaction of the top-level transaction that spawned it.
// The engine maintains, per top-level transaction, a dependency graph G
// over sub-transactions (the run-time counterpart of the paper's Future
// Serialization Graph) and serializes each future either at its submission
// point (forward validation) or at its evaluation point (backward
// validation), per the configured Ordering:
//
//   - WO (weakly ordered): a future may serialize at submission or at
//     evaluation; continuations never abort; a future whose reads became
//     stale re-executes at its evaluation point.
//   - SO (strongly ordered, the JTF baseline): a future must serialize at
//     submission; merges happen in submission order within each flow, so a
//     slow future stalls its later siblings (the paper's straggler effect);
//     a continuation that read data the future wrote triggers an internal
//     abort of the whole top-level transaction.
//
// Escaping futures (futures evaluated by a different top-level transaction
// than the one that spawned them) follow the configured Atomicity:
//
//   - LAC (locally atomic continuation): a top-level transaction implicitly
//     evaluates all of its unevaluated futures right before committing.
//   - GAC (globally atomic continuation): the spawner commits without
//     waiting; the future detaches carrying its observed read versions and
//     is validated — and if stale, re-executed — inside the top-level
//     transaction that eventually evaluates it.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"wtftm/internal/history"
	"wtftm/internal/mvstm"
	"wtftm/internal/sched"
)

// Ordering selects the serialization-order semantics for futures (§3.1 of
// the paper).
type Ordering int

const (
	// WO allows a future to serialize at its submission or its evaluation.
	WO Ordering = iota
	// SO forces a future to serialize at its submission (sequential
	// equivalence; the semantics of the JTF baseline).
	SO
)

func (o Ordering) String() string {
	if o == SO {
		return "SO"
	}
	return "WO"
}

// Atomicity selects the continuation-atomicity semantics for escaping
// futures (§3.3 of the paper).
type Atomicity int

const (
	// LAC limits a continuation to its spawning top-level transaction: the
	// top-level commit implicitly evaluates every outstanding future.
	LAC Atomicity = iota
	// GAC lets continuations span top-level transactions: escaping futures
	// detach at the spawner's commit and serialize at their eventual
	// evaluation point in another top-level transaction.
	GAC
)

func (a Atomicity) String() string {
	if a == GAC {
		return "GAC"
	}
	return "LAC"
}

// Options configures a System.
type Options struct {
	// Ordering is the future serialization-order semantics (default WO).
	Ordering Ordering
	// Atomicity is the escaping-future semantics (default LAC).
	Atomicity Atomicity
	// MaxRetries bounds top-level re-executions; 0 means unlimited.
	MaxRetries int
	// Recorder, when non-nil, receives a totally ordered operation log of
	// every transactional event, suitable for FSG-based verification.
	Recorder *history.Recorder
	// Hook, when non-nil, hands schedule control to a deterministic
	// concurrency-testing harness (internal/conform): the engine yields at
	// every read/write/submit/evaluate/commit boundary and delegates every
	// internal wait to the hook. Production code leaves it nil; the cost is
	// then a single nil check per boundary.
	Hook sched.Hook
}

// ErrRetriesExhausted is returned by Atomic when MaxRetries is exceeded.
var ErrRetriesExhausted = errors.New("core: transaction retries exhausted")

// ErrStaleFuture is returned when evaluating a future whose spawning
// top-level transaction aborted permanently: the future can never commit.
var ErrStaleFuture = errors.New("core: future belongs to an aborted top-level transaction")

// Stats holds monotonic counters describing engine activity.
type Stats struct {
	TopCommits  atomic.Int64 // committed top-level transactions
	TopConflict atomic.Int64 // top-level aborts from MV-STM validation
	TopInternal atomic.Int64 // top-level aborts from SO continuation conflicts

	FuturesSubmitted    atomic.Int64
	MergedAtSubmission  atomic.Int64 // futures serialized at their submission point
	MergedAtEvaluation  atomic.Int64 // futures serialized at their evaluation point
	FutureReexecutions  atomic.Int64 // internal aborts: future re-ran at evaluation
	ImplicitEvaluations atomic.Int64 // LAC implicit evaluations at top commit
	EscapedFutures      atomic.Int64 // GAC futures that detached at top commit
	EscapeReexecutions  atomic.Int64 // detached futures re-run in the evaluator
	SegmentRollbacks    atomic.Int64 // partial continuation rollbacks (AtomicSegments)
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	TopCommits, TopConflict, TopInternal                                   int64
	FuturesSubmitted, MergedAtSubmission, MergedAtEvaluation               int64
	FutureReexecutions, ImplicitEvaluations, EscapedFutures, EscapeReexecs int64
	SegmentRollbacks                                                       int64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		TopCommits:          s.TopCommits.Load(),
		TopConflict:         s.TopConflict.Load(),
		TopInternal:         s.TopInternal.Load(),
		FuturesSubmitted:    s.FuturesSubmitted.Load(),
		MergedAtSubmission:  s.MergedAtSubmission.Load(),
		MergedAtEvaluation:  s.MergedAtEvaluation.Load(),
		FutureReexecutions:  s.FutureReexecutions.Load(),
		ImplicitEvaluations: s.ImplicitEvaluations.Load(),
		EscapedFutures:      s.EscapedFutures.Load(),
		EscapeReexecs:       s.EscapeReexecutions.Load(),
		SegmentRollbacks:    s.SegmentRollbacks.Load(),
	}
}

// InternalAborts is the total number of sub-transaction-level aborts: future
// re-executions (WO) plus SO continuation conflicts plus detached-future
// re-executions.
func (s StatsSnapshot) InternalAborts() int64 {
	return s.FutureReexecutions + s.TopInternal + s.EscapeReexecs
}

// System orchestrates transactional futures over an MV-STM instance.
type System struct {
	stm    *mvstm.STM
	opts   Options
	stats  Stats
	topSeq atomic.Int64
	widSeq atomic.Int64 // unique ids for uncommitted writes (GAC resolution)

	// observed is true when a recorder or a scheduler hook is installed:
	// only they read the display names of futures.
	observed bool

	arenas  arenaList // retired graph arenas awaiting reuse (pool.go)
	workers workerSet // parked future workers (worker.go)
}

// New creates a futures engine over stm with the given options.
func New(stm *mvstm.STM, opts Options) *System {
	return &System{stm: stm, opts: opts, observed: opts.Recorder != nil || opts.Hook != nil}
}

// STM returns the underlying multi-versioned STM.
func (s *System) STM() *mvstm.STM { return s.stm }

// Options returns the system's configuration.
func (s *System) Options() Options { return s.opts }

// Stats exposes the engine counters.
func (s *System) Stats() *Stats { return &s.stats }

func (s *System) nextWID() int64 { return s.widSeq.Add(1) }

// errMVConflict aliases the MV-STM conflict error for the segments driver.
var errMVConflict = mvstm.ErrConflict

// control-flow sentinels carried by panics inside transaction bodies; they
// never escape the package.
type retrySignal struct{ cause error }

type userAbort struct{ err error }

func (s *System) record(op history.Op) {
	if r := s.opts.Recorder; r != nil {
		r.Record(op)
	}
}

// yield marks a scheduler preemption point (no-op without an installed hook).
func (s *System) yield(p sched.Point, label string) {
	if h := s.opts.Hook; h != nil {
		h.Yield(p, label)
	}
}

// closedNow reports whether ch is closed, without blocking.
func closedNow(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// waitAny2 blocks until a or b is closed and returns 0 or 1 (preferring a
// when both are ready). With a hook installed the wait is delegated to the
// scheduler so a paused sibling task cannot deadlock the wait.
func waitAny2(h sched.Hook, a, b <-chan struct{}) int {
	if h == nil {
		select {
		case <-a:
			return 0
		case <-b:
			return 1
		}
	}
	for {
		if closedNow(a) {
			return 0
		}
		if closedNow(b) {
			return 1
		}
		h.Park(func() bool { return closedNow(a) || closedNow(b) })
	}
}

// waitAny3 is waitAny2 over three channels.
func waitAny3(h sched.Hook, a, b, c <-chan struct{}) int {
	if h == nil {
		select {
		case <-a:
			return 0
		case <-b:
			return 1
		case <-c:
			return 2
		}
	}
	for {
		if closedNow(a) {
			return 0
		}
		if closedNow(b) {
			return 1
		}
		if closedNow(c) {
			return 2
		}
		h.Park(func() bool { return closedNow(a) || closedNow(b) || closedNow(c) })
	}
}

// Atomic executes fn as a top-level transaction with automatic retry on
// conflicts (both MV-STM commit conflicts and SO continuation conflicts).
// A non-nil error returned by fn aborts the transaction permanently and is
// returned unchanged. Futures spawned by an aborted attempt are discarded.
func (s *System) Atomic(fn func(tx *Tx) error) error {
	_, err := s.AtomicResult(func(tx *Tx) (any, error) { return nil, fn(tx) })
	return err
}

// AtomicResult is Atomic for bodies that produce a value. The value of the
// committed execution is returned.
func (s *System) AtomicResult(fn func(tx *Tx) (any, error)) (any, error) {
	soRetry := false
	for attempt := 0; ; attempt++ {
		top := s.newTop()
		// After an SO continuation conflict the retry degrades to fork-join
		// submission (the continuation waits for each future to serialize at
		// submission before proceeding). This is still SO-correct — the
		// future serializes before its continuation — and guarantees
		// progress, standing in for JTF's continuation-only restart, which
		// needs first-class continuations (see DESIGN.md).
		top.serialSubmit = soRetry
		val, err := top.run(fn)
		if err == nil {
			err = top.commit()
			if err == nil {
				return val, nil
			}
		}
		var rerr *retryError
		switch {
		case errors.As(err, &rerr):
			if errors.Is(rerr.cause, errSOConflict) {
				soRetry = true
			}
			top.abort(rerr.cause)
		case errors.Is(err, mvstm.ErrConflict):
			s.stats.TopConflict.Add(1)
			top.abort(err)
		default:
			// Permanent, user-requested abort.
			top.abort(err)
			return nil, err
		}
		if s.opts.MaxRetries > 0 && attempt+1 >= s.opts.MaxRetries {
			return nil, fmt.Errorf("%w after %d attempts", ErrRetriesExhausted, attempt+1)
		}
	}
}

// retryError marks an internal abort that should re-run the whole top-level
// transaction.
type retryError struct{ cause error }

func (e *retryError) Error() string {
	return fmt.Sprintf("core: internal abort, retrying top-level transaction: %v", e.cause)
}
