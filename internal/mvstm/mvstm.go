// Package mvstm implements a multi-versioned software transactional memory
// in the style of JVSTM (Cachopo & Rito-Silva, 2006; Fernandes & Cachopo,
// PPoPP'11): shared state lives in versioned boxes, transactions read a
// consistent snapshot identified by a global clock value, read-only
// transactions never abort, and read-write transactions validate their
// read set at commit time (first committer wins).
//
// Read-write commits go through a parallel, helping-based commit pipeline
// (see commit.go) instead of a global lock: disjoint-footprint commits do
// not wait on each other and no committer blocks on a suspended peer.
// Active-snapshot tracking for version GC is striped across shards, each a
// list of snapshots in registration order whose head is its oldest (see
// active.go), and transaction objects are recycled through a sync.Pool,
// keeping the storage of their read and write sets (BoxSet, see set.go and
// pool.go).
//
// The package is the substrate the WTF-TM engine (internal/core) builds on;
// it deliberately supports no intra-transaction parallelism of its own, as
// assumed by Section 4 of the paper.
package mvstm

import (
	"errors"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"wtftm/internal/sched"
)

// ErrConflict is returned by Commit when read-set validation fails because a
// concurrent transaction committed a newer version of a box this transaction
// read. Atomic retries the transaction automatically on this error.
var ErrConflict = errors.New("mvstm: read-set validation conflict")

// ErrDone is returned when a finished (committed or discarded) transaction
// is used again.
var ErrDone = errors.New("mvstm: transaction already finished")

// Version is one entry in a box's immutable version chain. The chain is
// ordered by strictly decreasing TS; a transaction with snapshot s observes
// the newest version with TS <= s.
type Version struct {
	// Value is the value written by the committing transaction.
	Value any
	// TS is the global clock value at which this version became visible.
	TS int64

	prev atomic.Pointer[Version]
}

// Prev returns the next older version, or nil if the tail of the (possibly
// trimmed) chain has been reached.
func (v *Version) Prev() *Version { return v.prev.Load() }

// VBox is a versioned transactional box holding a chain of committed
// versions. Boxes must be created through STM.NewBox so that they carry a
// base version visible to every snapshot.
type VBox struct {
	head atomic.Pointer[Version]
	// trimmedAt is the highest GC horizon this box's chain has been trimmed
	// to. When the horizon has not advanced since the last trim there is
	// nothing new to cut, so commits skip the O(chain-length) walk — without
	// this, a single long-lived snapshot (which legitimately pins every newer
	// version) degrades every commit on a hot box to a full-chain scan.
	trimmedAt atomic.Int64
	// sum is the box's Bloom fingerprint: two bits of a 64-bit word, fixed at
	// creation. Conflict detectors OR the fingerprints of a set of boxes into
	// a summary word; two sets with non-intersecting summaries provably share
	// no box, so a zero AND lets validators skip a scan entirely.
	sum uint64
	// hash is the box's hash for open-addressed box sets, fixed at creation
	// from the same scrambled sequence number as sum (its high half, which
	// sum does not use).
	hash uint32
	// Name is an optional debugging label.
	Name string
}

// boxSeq numbers boxes across all STM instances; each box's fingerprint is
// derived from its sequence number so fingerprints are well distributed
// without hashing pointers.
var boxSeq atomic.Uint64

// Summary returns the box's two-bit Bloom fingerprint.
func (b *VBox) Summary() uint64 { return b.sum }

// Hash returns the box's 32-bit hash. It is a Fibonacci hash of the box's
// sequence number, so its high bits spread boxes created in a row evenly.
func (b *VBox) Hash() uint32 { return b.hash }

// ReadAt returns the newest committed version with TS <= snap. It is safe to
// call concurrently with commits and never blocks. It panics if snap predates
// the garbage-collection horizon, which indicates an engine bug (the GC never
// trims versions visible to a registered active snapshot).
func (b *VBox) ReadAt(snap int64) *Version {
	for v := b.head.Load(); v != nil; v = v.Prev() {
		if v.TS <= snap {
			return v
		}
	}
	panic(fmt.Sprintf("mvstm: box %q has no version visible at snapshot %d", b.Name, snap))
}

// Head returns the globally newest committed version of the box.
func (b *VBox) Head() *Version { return b.head.Load() }

// Stats holds monotonic operation counters for an STM instance.
type Stats struct {
	Commits         atomic.Int64 // successful read-write commits
	ReadOnlyCommits atomic.Int64 // commits that wrote nothing
	Conflicts       atomic.Int64 // commit-time validation failures
	Begins          atomic.Int64 // transactions started
	// HelpedCommits counts commit requests whose completion (write-back +
	// clock publish) was driven to visibility by a transaction other than
	// their owner — the "helping" of the lock-free commit pipeline.
	HelpedCommits atomic.Int64
	// CommitQueueHWM is the high-water mark of the commit pipeline's queue
	// length: the largest observed distance (in tickets) between a freshly
	// enqueued request and the oldest not-yet-completed one.
	CommitQueueHWM atomic.Int64
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Commits, ReadOnlyCommits, Conflicts, Begins int64
	HelpedCommits, CommitQueueHWM               int64
}

// Snapshot returns a consistent-enough point-in-time copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Commits:         s.Commits.Load(),
		ReadOnlyCommits: s.ReadOnlyCommits.Load(),
		Conflicts:       s.Conflicts.Load(),
		Begins:          s.Begins.Load(),
		HelpedCommits:   s.HelpedCommits.Load(),
		CommitQueueHWM:  s.CommitQueueHWM.Load(),
	}
}

// STM is a multi-versioned transactional memory instance. The zero value is
// not usable; create instances with New.
type STM struct {
	clock atomic.Int64
	// commitHead is the most recent fully-completed commit request (initially
	// a sentinel at ticket 0); commitTail is a lag-allowed hint to the last
	// enqueued one. See commit.go.
	commitHead atomic.Pointer[commitRequest]
	commitTail atomic.Pointer[commitRequest]
	active     activeShards
	stats      Stats
	txnPool    sync.Pool
	// hook, when non-nil, marks Begin and read-write commit entry as
	// scheduler preemption points (conformance harness). Set once via
	// SetSchedHook before the instance is shared.
	hook sched.Hook
	// conflictHook, when non-nil, is called with the first stale read-set
	// box each time a commit fails validation (abort attribution,
	// internal/obs). Set once via SetConflictHook before the instance is
	// shared; it runs on the committing goroutine and must be cheap and
	// non-blocking.
	conflictHook func(*VBox)
}

// New returns an empty STM with the clock at zero.
func New() *STM {
	s := &STM{}
	s.active.init(0)
	sentinel := &commitRequest{}
	sentinel.done.Store(true)
	s.commitHead.Store(sentinel)
	s.commitTail.Store(sentinel)
	s.txnPool.New = func() any {
		return &Txn{stm: s, shard: s.active.assign(), done: true}
	}
	return s
}

// Stats exposes the instance's counters.
func (s *STM) Stats() *Stats { return &s.stats }

// SetSchedHook installs a scheduler hook (see internal/sched). It must be
// called before the STM is shared between goroutines; passing nil is a no-op
// configuration. The commit pipeline itself needs no Park delegation: helping
// guarantees any single runnable committer finishes every enqueued request.
func (s *STM) SetSchedHook(h sched.Hook) { s.hook = h }

// SetConflictHook installs an abort-attribution callback invoked with the
// first stale box whenever read-set validation fails a commit. Like
// SetSchedHook it must be installed before the STM is shared; the callback
// runs inline on the committing goroutine.
func (s *STM) SetConflictHook(h func(*VBox)) { s.conflictHook = h }

// Clock returns the current global commit clock.
func (s *STM) Clock() int64 { return s.clock.Load() }

// NewBox creates a box whose initial value is visible to every snapshot
// (version timestamp 0).
func (s *STM) NewBox(init any) *VBox { return s.NewBoxNamed("", init) }

// NewBoxNamed is NewBox with a debugging label.
func (s *STM) NewBoxNamed(name string, init any) *VBox {
	b := &VBox{Name: name}
	// splitmix64-style scramble of the box sequence number picks the two
	// fingerprint bits.
	h := boxSeq.Add(1) * 0x9E3779B97F4A7C15
	b.sum = 1<<(h&63) | 1<<((h>>6)&63)
	b.hash = uint32(h >> 32)
	b.head.Store(&Version{Value: init, TS: 0})
	return b
}

// Txn is a single-threaded read-write transaction. All methods must be
// called from one goroutine; concurrent snapshot reads of boxes can instead
// go through VBox.ReadAt directly (that is what the futures engine does).
//
// Txn objects are recycled through the STM's pool; see Release.
type Txn struct {
	stm *STM
	// node is the transaction's registration in its activeShards stripe;
	// node.snap is the snapshot it reads at.
	node  snapNode
	shard int32 // activeShards stripe this transaction registers in
	done  bool

	// Read's read set (reads made outside the Txn are validated in place,
	// CommitValidating) and the write set, each in insertion order. Their
	// storage is kept across pool generations (Release).
	reads  BoxSet[struct{}]
	writes BoxSet[any]

	// ts is the commit timestamp of a successful read-write commit, 0
	// otherwise.
	ts int64
	// fresh is staleIn's yield function, made once per Txn; it keeps the
	// first box that is not current at the snapshot in stale, which staleIn
	// clears before it returns.
	fresh func(*VBox) bool
	stale *VBox
}

// Begin starts a transaction reading the snapshot identified by the current
// clock value.
func (s *STM) Begin() *Txn {
	if h := s.hook; h != nil {
		h.Yield(sched.PointSTMBegin, "")
	}
	s.stats.Begins.Add(1)
	t := s.getTxn()
	s.active.register(t.shard, &t.node, &s.clock)
	return t
}

// Snapshot returns the clock value this transaction reads at.
func (t *Txn) Snapshot() int64 { return t.node.snap }

// Read returns the transaction-local view of b: the pending write if any,
// otherwise the newest version visible at the transaction's snapshot. The
// box is recorded in the read set for commit-time validation.
func (t *Txn) Read(b *VBox) any {
	if t.done {
		panic(ErrDone)
	}
	if v, ok := t.writes.Get(b); ok {
		return v
	}
	t.reads.Put(b, struct{}{})
	return b.ReadAt(t.node.snap).Value
}

// Write buffers a write of v to b; it becomes visible to other transactions
// only when this transaction commits.
func (t *Txn) Write(b *VBox, v any) {
	if t.done {
		panic(ErrDone)
	}
	t.writes.Put(b, v)
}

// Commit attempts to make the transaction's writes visible atomically.
// Read-only transactions always succeed without synchronization. Read-write
// transactions go through the parallel commit pipeline (commit.go); on
// ErrConflict the transaction is discarded and must be re-run from Begin.
func (t *Txn) Commit() error { return t.CommitValidating(nil) }

// CommitValidating is Commit for a transaction that also read boxes at its
// snapshot outside the Txn (VBox.ReadAt): a read-write commit validates the
// boxes reads yields, which may repeat, on every pass it validates its own
// read set. A read-only commit does not consult reads; nor does a blind
// write, whose own read set is empty and reads nil. The futures engine
// passes its main chain's snapshot reads, kept in its own sets.
func (t *Txn) CommitValidating(reads iter.Seq[*VBox]) error {
	if t.done {
		return ErrDone
	}
	s := t.stm
	if t.writes.Size() == 0 {
		t.finish()
		s.stats.ReadOnlyCommits.Add(1)
		return nil
	}
	if h := s.hook; h != nil {
		h.Yield(sched.PointSTMCommit, "")
	}
	err := s.commitWrites(t, reads)
	t.finish()
	if err != nil {
		s.stats.Conflicts.Add(1)
		return err
	}
	s.stats.Commits.Add(1)
	return nil
}

// CommitTS returns the timestamp a successful read-write commit installed
// its versions at, and 0 before commit or for a read-only transaction. The
// futures engine compares it with the version an escaped future's read
// sees at its evaluation.
func (t *Txn) CommitTS() int64 { return t.ts }

// Discard abandons the transaction without committing.
func (t *Txn) Discard() {
	if !t.done {
		t.finish()
	}
}

func (t *Txn) finish() {
	t.stm.active.unregister(t.shard, &t.node)
	t.done = true
}

// Pin keeps every version visible at the transaction's snapshot alive until
// the returned release function is called, independently of the transaction
// itself. It must be called while the transaction is still live (before
// Commit/Discard); the pin then survives the transaction. The futures engine
// pins a top-level transaction's snapshot while detached (escaping) futures
// spawned by it are still executing. Calling release again does nothing.
//
// The pin is linked in the transaction's own shard directly behind the
// transaction's registration, so there is no instant at which the snapshot
// is untracked and the shard stays sorted (see activeShards).
func (t *Txn) Pin() (release func()) {
	if t.done {
		panic(ErrDone)
	}
	a, shard, n := &t.stm.active, t.shard, &snapNode{}
	a.pin(shard, &t.node, n)
	return func() { a.unregister(shard, n) }
}

// Atomic runs fn in a transaction, retrying automatically on commit
// conflicts. A non-nil error from fn aborts the transaction permanently and
// is returned as-is. fn may also return ErrConflict to request an explicit
// retry.
//
// The transaction handle passed to fn is recycled after each attempt and
// must not be retained or used after fn returns.
func (s *STM) Atomic(fn func(*Txn) error) error {
	for {
		t := s.Begin()
		err := fn(t)
		if err != nil {
			t.Release()
			if errors.Is(err, ErrConflict) {
				continue
			}
			return err
		}
		err = t.Commit()
		t.Release()
		if err == nil {
			return nil
		}
	}
}

// trim cuts the version chain below the newest version still visible to the
// oldest registered snapshot, bounding memory use (JVSTM-style GC).
func trim(newest *Version, horizon int64) {
	v := newest
	for v != nil && v.TS > horizon {
		v = v.Prev()
	}
	if v != nil {
		v.prev.Store(nil)
	}
}
