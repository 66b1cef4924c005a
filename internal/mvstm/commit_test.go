package mvstm

import (
	"errors"
	"sync"
	"testing"
)

// suspendedRequest simulates a committer that enqueued its commit request
// and was then suspended before completing write-back: the request is on the
// list, the clock has not advanced, nothing is written back.
func suspendedRequest(s *STM, writes map[*VBox]any) *commitRequest {
	last := s.lastRequest()
	r := &commitRequest{ticket: last.ticket + 1}
	for b, v := range writes {
		r.entries = append(r.entries, commitEntry{box: b, ver: &Version{Value: v, TS: last.ticket + 1}})
	}
	if !last.next.CompareAndSwap(nil, r) {
		panic("suspendedRequest: concurrent enqueue")
	}
	return r
}

// A committer must complete (help) an earlier enqueued request before its
// own commit, rather than blocking on the suspended peer.
func TestCommitHelpsSuspendedPeer(t *testing.T) {
	s := New()
	peerBox := s.NewBox(0)
	ownBox := s.NewBox(0)
	r := suspendedRequest(s, map[*VBox]any{peerBox: 42})

	tx := s.Begin() // snapshots at 0: the peer's commit is not yet published
	tx.Write(ownBox, 7)
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit behind suspended peer: %v", err)
	}
	if !r.done.Load() {
		t.Fatal("peer request not completed by helper")
	}
	if got := s.Clock(); got != 2 {
		t.Fatalf("clock = %d, want 2 (peer ticket 1 + own ticket 2)", got)
	}
	if got := peerBox.Head().Value; got != 42 {
		t.Fatalf("peer write not installed: %v", got)
	}
	if got, ts := ownBox.Head().Value, ownBox.Head().TS; got != 7 || ts != 2 {
		t.Fatalf("own write = %v@%d, want 7@2", got, ts)
	}
	if got := s.Stats().HelpedCommits.Load(); got != 1 {
		t.Fatalf("HelpedCommits = %d, want 1", got)
	}
}

// A transaction whose read set is invalidated by a suspended (enqueued but
// not written-back) commit must conflict: the enqueue decided the peer's
// commit, so first-committer-wins applies even before write-back.
func TestConflictAgainstSuspendedPeer(t *testing.T) {
	s := New()
	b := s.NewBox(0)
	tx := s.Begin()
	if got := tx.Read(b); got != 0 {
		t.Fatalf("read = %v", got)
	}
	suspendedRequest(s, map[*VBox]any{b: 99})
	tx.Write(b, 1)
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit err = %v, want ErrConflict", err)
	}
	check := s.Begin()
	defer func() { check.Discard(); check.Release() }()
	if got := check.Read(b); got != 99 {
		t.Fatalf("surviving value = %v, want the suspended peer's 99", got)
	}
}

// The commit-queue high-water mark must reflect how far enqueue ran ahead of
// completion.
func TestCommitQueueHWM(t *testing.T) {
	s := New()
	a, b := s.NewBox(0), s.NewBox(0)
	suspendedRequest(s, map[*VBox]any{a: 1})
	tx := s.Begin()
	tx.Write(b, 2)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Own ticket 2, completed head was at 0 when enqueued: depth 2.
	if got := s.Stats().CommitQueueHWM.Load(); got != 2 {
		t.Fatalf("CommitQueueHWM = %d, want 2", got)
	}
}

// Helped-commit and queue counters must stay consistent under concurrency.
func TestPipelineCountersConsistentUnderLoad(t *testing.T) {
	s := New()
	boxes := make([]*VBox, 4)
	for i := range boxes {
		boxes[i] = s.NewBox(0)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.Atomic(func(tx *Txn) error {
					b := boxes[(g+i)%len(boxes)]
					tx.Write(b, tx.Read(b).(int)+1)
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	snap := s.Stats().Snapshot()
	if snap.Commits != int64(s.Clock()) {
		t.Fatalf("commits %d != clock %d", snap.Commits, s.Clock())
	}
	if snap.HelpedCommits > snap.Commits {
		t.Fatalf("helped %d > commits %d", snap.HelpedCommits, snap.Commits)
	}
	if snap.CommitQueueHWM < 1 {
		t.Fatalf("queue HWM %d < 1", snap.CommitQueueHWM)
	}
	sum := 0
	check := s.Begin()
	for _, b := range boxes {
		sum += check.Read(b).(int)
	}
	check.Discard()
	check.Release()
	if sum != goroutines*200 {
		t.Fatalf("lost updates: sum %d, want %d", sum, goroutines*200)
	}
}

// Recycled transactions must come back clean: no read set, write set, or
// commit timestamp leaking between pool generations, also when the sets
// spilled and the next user finds their storage kept.
func TestTxnPoolRecyclingIsolation(t *testing.T) {
	s := New()
	a, b := s.NewBox(1), s.NewBox(2)
	tx := s.Begin()
	tx.Read(a)
	tx.Write(b, 20)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx.Release()

	tx2 := s.Begin() // may be the same object
	if tx2.writes.Size() > 0 {
		t.Fatal("recycled txn carries a write set")
	}
	if tx2.reads.Size() > 0 {
		t.Fatal("recycled txn carries a read set")
	}
	if tx2.CommitTS() != 0 {
		t.Fatal("recycled txn carries a commit timestamp")
	}
	// A spilled read set must also come back clean and deduplicated.
	boxes := make([]*VBox, 3*BoxSetInline)
	for i := range boxes {
		boxes[i] = s.NewBox(i)
	}
	for _, bx := range boxes {
		tx2.Read(bx)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2.Release()
	tx3 := s.Begin()
	if tx3.reads.Size() > 0 {
		t.Fatal("recycled txn carries a spilled read set")
	}
	// So must a spilled write set: the next user reads the committed values
	// and its commit installs only its own box.
	for i, bx := range boxes {
		tx3.Write(bx, 100+i)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3.Release()
	tx4 := s.Begin()
	if tx4.writes.Size() > 0 {
		t.Fatal("recycled txn carries a spilled write set")
	}
	for i, bx := range boxes {
		if v := tx4.Read(bx); v != 100+i {
			t.Fatalf("box %d reads %v after a recycled spilled write set, want %d", i, v, 100+i)
		}
	}
	tx4.Write(a, 7)
	if err := tx4.Commit(); err != nil {
		t.Fatal(err)
	}
	ts := tx4.CommitTS()
	tx4.Release()
	if h := a.Head(); h.TS != ts || h.Value != 7 {
		t.Fatalf("own write: head %v@%d, want 7@%d", h.Value, h.TS, ts)
	}
	for i, bx := range boxes {
		if bx.Head().TS == ts {
			t.Fatalf("box %d got a version from a commit that did not write it", i)
		}
	}
}

// A read set that spilled past its inline capacity must still be validated
// whole, the reads after the spill included.
func TestReadSetSpillValidates(t *testing.T) {
	s := New()
	boxes := make([]*VBox, 2*BoxSetInline)
	for i := range boxes {
		boxes[i] = s.NewBox(0)
	}
	victim := boxes[len(boxes)-1] // read after the spill happened
	tx := s.Begin()
	for _, b := range boxes {
		tx.Read(b)
	}
	if err := s.Atomic(func(w *Txn) error { w.Write(victim, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	tx.Write(boxes[0], 5)
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("spilled read not validated: err = %v", err)
	}
}

// countedReads yields boxes as a supplied read set and counts how often the
// commit consulted it; before, when set, runs at the start of the first
// consultation.
type countedReads struct {
	boxes  []*VBox
	calls  int
	before func()
}

func (c *countedReads) seq(yield func(*VBox) bool) {
	c.calls++
	if c.calls == 1 && c.before != nil {
		c.before()
	}
	for _, b := range c.boxes {
		if !yield(b) {
			return
		}
	}
}

// A box of the supplied read set that a commit after the snapshot overwrote
// fails the commit, and the conflict hook names that box; an untouched one
// does not.
func TestCommitValidatingStaleBox(t *testing.T) {
	s := New()
	var hooked []*VBox
	s.SetConflictHook(func(b *VBox) { hooked = append(hooked, b) })
	fresh, stale, own := s.NewBoxNamed("fresh", 0), s.NewBoxNamed("stale", 0), s.NewBox(0)

	tx := s.Begin()
	peer := s.Begin()
	peer.Write(stale, 1)
	if err := peer.Commit(); err != nil {
		t.Fatal(err)
	}
	peer.Release()
	tx.Write(own, 1)
	reads := &countedReads{boxes: []*VBox{fresh, fresh, stale}}
	if err := tx.CommitValidating(reads.seq); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit err = %v, want ErrConflict", err)
	}
	tx.Release()
	if len(hooked) != 1 || hooked[0] != stale {
		t.Fatalf("conflict hook calls = %v, want exactly [stale]", hooked)
	}

	tx = s.Begin()
	tx.Write(own, 2)
	if err := tx.CommitValidating((&countedReads{boxes: []*VBox{fresh, stale}}).seq); err != nil {
		t.Fatalf("commit after the snapshot moved past the peer: %v", err)
	}
	tx.Release()
}

// A supplied box that goes stale only through a request enqueued after the
// list end the commit started from is not a conflict on sight: the commit
// re-runs against the longer list, consulting the set again, and only that
// pass decides. The peer's version is newer than the snapshot, so the
// verdict is still a conflict, reported once.
func TestCommitValidatingRevalidatesPastLast(t *testing.T) {
	s := New()
	var hooked []*VBox
	s.SetConflictHook(func(b *VBox) { hooked = append(hooked, b) })
	b, own := s.NewBoxNamed("b", 0), s.NewBox(0)

	tx := s.Begin()
	tx.Write(own, 1)
	reads := &countedReads{boxes: []*VBox{b}}
	// The peer enqueues behind the commit's `last` while the set is being
	// validated, and its write-back lands before the box is checked.
	reads.before = func() { s.complete(suspendedRequest(s, map[*VBox]any{b: 9})) }
	if err := tx.CommitValidating(reads.seq); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit err = %v, want ErrConflict", err)
	}
	tx.Release()
	if reads.calls != 2 {
		t.Fatalf("the supplied set was consulted %d times, want 2 (the pass that saw the later request, then the revalidation)", reads.calls)
	}
	if len(hooked) != 1 || hooked[0] != b {
		t.Fatalf("conflict hook calls = %v, want exactly [b] from the revalidation", hooked)
	}
}

// A read-only commit never validates, so it does not consult the supplied
// set at all, however stale its boxes are.
func TestCommitValidatingReadOnly(t *testing.T) {
	s := New()
	b := s.NewBox(0)
	tx := s.Begin()
	peer := s.Begin()
	peer.Write(b, 1)
	if err := peer.Commit(); err != nil {
		t.Fatal(err)
	}
	peer.Release()
	reads := &countedReads{boxes: []*VBox{b}}
	if err := tx.CommitValidating(reads.seq); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
	tx.Release()
	if reads.calls != 0 {
		t.Fatalf("a read-only commit consulted the supplied set %d times", reads.calls)
	}
}
