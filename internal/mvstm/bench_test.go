package mvstm

import (
	"fmt"
	"sync"
	"testing"
)

// benchCommit drives goroutines committing read-write transactions as fast
// as they can. With disjoint footprints every commit succeeds and the
// benchmark measures raw commit-pipeline throughput; with overlapping
// footprints it measures conflict detection + retry under maximal
// contention (a single shared box).
func benchCommit(b *testing.B, goroutines int, overlap bool) {
	s := New()
	shared := s.NewBox(0)
	boxes := make([]*VBox, goroutines)
	for i := range boxes {
		boxes[i] = s.NewBox(0)
	}
	per := b.N/goroutines + 1
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			box := boxes[g]
			if overlap {
				box = shared
			}
			for i := 0; i < per; i++ {
				for {
					tx := s.Begin()
					tx.Write(box, tx.Read(box).(int)+1)
					err := tx.Commit()
					tx.Release()
					if err == nil {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	// What the commit pipeline did beside committing: validation failures
	// per attempt, completions a non-owner drove per successful commit (0
	// under a global lock), and the commit queue's high-water mark.
	st := s.Stats().Snapshot() // Commits >= goroutines: every one commits at least once
	b.ReportMetric(float64(st.Conflicts)/float64(st.Commits+st.Conflicts), "conflict-rate")
	b.ReportMetric(float64(st.HelpedCommits)/float64(st.Commits), "helped/commit")
	b.ReportMetric(float64(st.CommitQueueHWM), "queue-hwm")
}

// BenchmarkCommitContention is the PR's headline number: read-write commit
// throughput as goroutines are added, with disjoint vs overlapping write
// sets. Under the seed's global commitMu the disjoint series flatlines (all
// commits serialize behind one lock); the parallel commit pipeline lets
// disjoint commits proceed without waiting on each other.
func BenchmarkCommitContention(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("disjoint/g=%d", g), func(b *testing.B) {
			benchCommit(b, g, false)
		})
	}
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("overlap/g=%d", g), func(b *testing.B) {
			benchCommit(b, g, true)
		})
	}
}

// BenchmarkBeginFinish measures the Begin/finish pair in isolation: the
// active-snapshot registration path that every transaction (including
// read-only ones, which never touch the commit pipeline) goes through.
func BenchmarkBeginFinish(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			s := New()
			per := b.N/g + 1
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						tx := s.Begin()
						tx.Discard()
						tx.Release()
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkReadOnly measures a Begin/Read/Commit cycle that never enters
// the commit pipeline (read-only commits need no synchronization).
func BenchmarkReadOnly(b *testing.B) {
	s := New()
	box := s.NewBox(42)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tx := s.Begin()
			_ = tx.Read(box)
			_ = tx.Commit()
			tx.Release()
		}
	})
}

// BenchmarkSubstrateSingleWrite runs internal/bench's
// BenchmarkAtomicSingleWrite body on the substrate alone: STM.Atomic doing
// one read-modify-write of one box. The ratio of the two prices what the
// engine adds around a transaction that submits no future.
func BenchmarkSubstrateSingleWrite(b *testing.B) {
	s := New()
	box := s.NewBox(0)
	body := func(tx *Txn) error {
		tx.Write(box, tx.Read(box).(int)+1)
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := s.Atomic(body); err != nil {
			b.Fatal(err)
		}
	}
}
