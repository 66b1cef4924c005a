package mvstm

import (
	"sync"
	"testing"
)

// A pin taken by a live transaction keeps the versions visible at its
// snapshot after the transaction is gone, until it is released; releasing
// it again does nothing.
func TestPinKeepsVersionsReadable(t *testing.T) {
	s := New()
	b := s.NewBox(0)
	tx := s.Begin()
	pinned := tx.Snapshot()
	release := tx.Pin()
	tx.Discard()
	tx.Release()
	for i := 1; i <= 50; i++ {
		if err := s.Atomic(func(tx *Txn) error { tx.Write(b, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// No active transaction holds the old snapshot, but the pin must keep
	// the version visible at it alive.
	if got := b.ReadAt(pinned).Value; got != 0 {
		t.Fatalf("pinned snapshot read = %v, want 0", got)
	}
	release()
	// Release is idempotent.
	release()
	// After release, further commits may trim the old version.
	for i := 51; i <= 60; i++ {
		if err := s.Atomic(func(tx *Txn) error { tx.Write(b, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for v := b.Head(); v != nil; v = v.Prev() {
		n++
	}
	if n > 2 {
		t.Fatalf("chain length after release = %d, want <= 2", n)
	}
}

// A pin released while its transaction is still live leaves the
// transaction's own registration protecting the snapshot against
// concurrent commits and their GC.
func TestPinConcurrentWithCommits(t *testing.T) {
	s := New()
	boxes := make([]*VBox, 8)
	for i := range boxes {
		boxes[i] = s.NewBox(0)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Atomic(func(tx *Txn) error {
				tx.Write(boxes[i%len(boxes)], i)
				return nil
			})
		}
	}()
	for i := 0; i < 200; i++ {
		tx := s.Begin()
		snap := tx.Snapshot()
		release := tx.Pin()
		for _, b := range boxes {
			_ = b.ReadAt(snap) // must never panic while pinned
		}
		release()
		for _, b := range boxes {
			_ = b.ReadAt(snap) // nor while the transaction is live
		}
		tx.Discard()
		tx.Release()
	}
	close(stop)
	wg.Wait()
}

func TestReadAtPanicsBelowHorizon(t *testing.T) {
	s := New()
	b := s.NewBox(0)
	for i := 1; i <= 10; i++ {
		if err := s.Atomic(func(tx *Txn) error { tx.Write(b, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// All old versions are trimmed; reading far below the horizon is an
	// engine bug and must fail loudly rather than return garbage.
	defer func() {
		if recover() == nil {
			t.Fatal("ReadAt below the GC horizon did not panic")
		}
	}()
	// Walk to the chain's tail to find its horizon, then go below it.
	tail := b.Head()
	for tail.Prev() != nil {
		tail = tail.Prev()
	}
	if tail.TS == 0 {
		t.Skip("nothing was trimmed on this run")
	}
	b.ReadAt(tail.TS - 1)
}

// TestCommitTSExposedAfterCommit: a read-write commit reports the
// timestamp it installed its versions at, the heads' TS; before it, and for a
// read-only commit, CommitTS is 0.
func TestCommitTSExposedAfterCommit(t *testing.T) {
	s := New()
	b1 := s.NewBox(0)
	b2 := s.NewBox(0)
	tx := s.Begin()
	tx.Write(b1, 10)
	tx.Write(b2, 20)
	if ts := tx.CommitTS(); ts != 0 {
		t.Fatalf("CommitTS = %d before commit, want 0", ts)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ts := tx.CommitTS()
	if ts == 0 || b1.Head().TS != ts || b2.Head().TS != ts {
		t.Fatalf("CommitTS = %d, heads' TS %d and %d", ts, b1.Head().TS, b2.Head().TS)
	}
	if b1.Head().Value != 10 || b2.Head().Value != 20 {
		t.Fatal("the heads are not the committed versions")
	}
	ro := s.Begin()
	ro.Read(b1)
	if err := ro.Commit(); err != nil || ro.CommitTS() != 0 {
		t.Fatalf("read-only commit: %v, CommitTS = %d, want 0", err, ro.CommitTS())
	}
}
