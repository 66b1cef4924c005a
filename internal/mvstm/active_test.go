package mvstm

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// min must follow removals from each shard's list, at its head and in its
// middle, across shards.
func TestActiveShardsMinFollowsRemovals(t *testing.T) {
	var a activeShards
	a.init(4)
	var clock atomic.Int64
	var n5, n6, n7, n9 snapNode
	for _, r := range []struct {
		shard int32
		n     *snapNode
		snap  int64
	}{{0, &n5, 5}, {1, &n6, 6}, {0, &n7, 7}, {0, &n9, 9}} {
		clock.Store(r.snap)
		a.register(r.shard, r.n, &clock)
		if r.n.snap != r.snap {
			t.Fatalf("registered snap %d, want %d", r.n.snap, r.snap)
		}
	}
	if got := a.min(100); got != 5 {
		t.Fatalf("min = %d, want 5", got)
	}
	a.unregister(0, &n7) // middle of shard 0
	if got := a.min(100); got != 5 {
		t.Fatalf("min after removing 7 = %d, want 5", got)
	}
	a.unregister(0, &n5) // head of shard 0
	if got := a.min(100); got != 6 {
		t.Fatalf("min after removing 5 = %d, want 6", got)
	}
	a.unregister(1, &n6)
	if got := a.min(100); got != 9 {
		t.Fatalf("min after removing 6 = %d, want 9", got)
	}
	a.unregister(0, &n9)
	if got := a.min(42); got != 42 {
		t.Fatalf("min of empty set = %d, want fallback", got)
	}
}

// min must never exceed the fallback (the commit pipeline's pre-publish
// clock), even when every tracked snapshot is newer: a straggling helper
// re-completing an old ticket must not trim with a horizon from the future.
func TestActiveShardsMinCappedByFallback(t *testing.T) {
	var a activeShards
	a.init(2)
	var clock atomic.Int64
	clock.Store(50)
	var n snapNode
	a.register(0, &n, &clock)
	if got := a.min(10); got != 10 {
		t.Fatalf("min = %d, want fallback 10 (tracked snap 50 is newer)", got)
	}
}

// A pin keeps its snapshot tracked after its registration unlinks, in front
// of the newer registrations linked after it, and releasing it twice is
// harmless.
func TestActiveShardsPinOutlivesRegistration(t *testing.T) {
	var a activeShards
	a.init(2)
	var clock atomic.Int64
	var owner, pin, later snapNode
	clock.Store(7)
	a.register(1, &owner, &clock)
	a.pin(1, &owner, &pin)
	clock.Store(8)
	a.register(1, &later, &clock)
	a.unregister(1, &owner)
	if got := a.min(100); got != 7 {
		t.Fatalf("min = %d, want 7 (pin still holds)", got)
	}
	a.unregister(1, &pin)
	if got := a.min(100); got != 8 {
		t.Fatalf("min = %d, want 8 after the pin's release", got)
	}
	a.unregister(1, &pin) // repeated release
	if got := a.min(100); got != 8 {
		t.Fatalf("min = %d, want 8 after a repeated release", got)
	}
	a.unregister(1, &later)
	if got := a.min(100); got != 100 {
		t.Fatalf("min = %d, want fallback after last release", got)
	}
}

// TestActiveShardsModel drives random register, pin and unregister steps
// over several shards with a clock that only rises, and after every step
// compares min with the minimum of a multiset of the tracked snapshots.
func TestActiveShardsModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 45))
	var a activeShards
	a.init(4)
	var clock atomic.Int64
	type tracked struct {
		shard int32
		n     *snapNode
		reg   bool // a registration, which a pin may sit behind
	}
	var live []tracked
	ref := map[int64]int{}
	check := func(step int, what string) {
		t.Helper()
		fallback := clock.Load() - rng.Int64N(3)
		want := fallback
		for s := range ref {
			want = min(want, s)
		}
		if got := a.min(fallback); got != want {
			t.Fatalf("step %d (%s): min(%d) = %d, want %d (%d snapshots tracked)", step, what, fallback, got, want, len(ref))
		}
	}
	for step := 0; step < 20000; step++ {
		var what string
		switch r := rng.IntN(10); {
		case r < 2:
			clock.Add(rng.Int64N(3))
			what = "tick"
		case r < 5:
			sh := rng.Int32N(4)
			n := &snapNode{}
			a.register(sh, n, &clock)
			ref[n.snap]++
			live = append(live, tracked{sh, n, true})
			what = "register"
		case r < 6:
			i := rng.IntN(len(live) + 1)
			if i == len(live) || !live[i].reg {
				continue
			}
			o := live[i]
			n := &snapNode{}
			a.pin(o.shard, o.n, n)
			ref[n.snap]++
			live = append(live, tracked{o.shard, n, false})
			what = "pin"
		default:
			if len(live) == 0 {
				continue
			}
			i := rng.IntN(len(live))
			o := live[i]
			a.unregister(o.shard, o.n)
			if rng.IntN(4) == 0 {
				a.unregister(o.shard, o.n) // a repeated release
			}
			if ref[o.n.snap]--; ref[o.n.snap] == 0 {
				delete(ref, o.n.snap)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			what = "unregister"
		}
		check(step, what)
	}
	for _, o := range live {
		a.unregister(o.shard, o.n)
	}
	for i := range a.shards {
		if r := &a.shards[i].root; r.next != r || r.prev != r {
			t.Fatalf("shard %d not empty after every node unlinked", i)
		}
	}
}

// Txn.Pin must hand the pin to the transaction's own shard entry so there is
// no instant at which the snapshot is untracked: versions visible at the
// pinned snapshot survive the transaction's own commit and arbitrarily many
// later commits.
func TestTxnPinSurvivesOwnCommit(t *testing.T) {
	s := New()
	b := s.NewBox("base")
	tx := s.Begin()
	pinned := tx.Snapshot()
	release := tx.Pin()
	tx.Write(b, "mine")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx.Release()
	for i := 0; i < 50; i++ {
		if err := s.Atomic(func(w *Txn) error { w.Write(b, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ReadAt(pinned).Value; got != "base" {
		t.Fatalf("pinned read = %v, want base", got)
	}
	release()
	release() // idempotent
	// After release the old version may be trimmed by the next commits.
	for i := 0; i < 5; i++ {
		if err := s.Atomic(func(w *Txn) error { w.Write(b, i); return nil }); err != nil {
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

// The GC-horizon race: transactions pin their snapshot, commit, and escaped
// readers keep reading at the pinned snapshot while other goroutines commit
// and trim concurrently. ReadAt must never panic for a pinned snapshot.
// (Run under -race; this is the scenario the commit pipeline's activeShards
// safety argument covers.)
func TestTxnPinAgainstConcurrentCommits(t *testing.T) {
	s := New()
	boxes := make([]*VBox, 8)
	for i := range boxes {
		boxes[i] = s.NewBox(0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Atomic(func(tx *Txn) error {
					b := boxes[(w+i)%len(boxes)]
					tx.Write(b, tx.Read(b).(int)+1)
					return nil
				})
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				tx := s.Begin()
				snap := tx.Snapshot()
				release := tx.Pin()
				tx.Discard()
				tx.Release()
				// The transaction is gone; the pin alone must keep every
				// box readable at snap, racing the committers' GC.
				for _, b := range boxes {
					_ = b.ReadAt(snap)
				}
				release()
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// Version GC must still make progress once a long-lived pin releases, even
// though trims were skipped (trimmedAt watermark) while it was held.
func TestTrimWatermarkResumesAfterPinRelease(t *testing.T) {
	s := New()
	b := s.NewBox(0)
	tx := s.Begin()
	release := tx.Pin()
	tx.Discard()
	tx.Release()
	for i := 1; i <= 100; i++ {
		if err := s.Atomic(func(w *Txn) error { w.Write(b, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for v := b.Head(); v != nil; v = v.Prev() {
		n++
	}
	if n != 101 {
		t.Fatalf("chain length while pinned = %d, want 101 (nothing trimmable)", n)
	}
	release()
	for i := 0; i < 2; i++ {
		if err := s.Atomic(func(w *Txn) error { w.Write(b, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	n = 0
	for v := b.Head(); v != nil; v = v.Prev() {
		n++
	}
	if n > 2 {
		t.Fatalf("chain length after release = %d, want <= 2", n)
	}
}
