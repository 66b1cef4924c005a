package bench

import (
	"fmt"
	"testing"

	"wtftm/internal/core"
	"wtftm/internal/mvstm"
)

// newCoreBench builds a fresh WO/LAC engine and a grid of boxes.
func newCoreBench(n int) (*core.System, []*mvstm.VBox) {
	stm := mvstm.New()
	sys := core.New(stm, core.Options{Ordering: core.WO, Atomicity: core.LAC})
	boxes := make([]*mvstm.VBox, n)
	for i := range boxes {
		boxes[i] = stm.NewBox(0)
	}
	return sys, boxes
}

// BenchmarkReadDepth measures the cost of a continuation read that must
// resolve against the ancestor chain, as a function of chain depth. The
// transaction first builds a chain of `depth` merged futures (each writing
// one private box); the timed loop then alternates a sub-transaction
// boundary (an idempotent re-evaluation of an already-merged future) with
// reads of the chain's boxes, so every timed read is a first read in a
// fresh vertex. Flat ns/op across depths means ancestor resolution is O(1).
func BenchmarkReadDepth(b *testing.B) {
	// Per transaction: build the chain (untimed), then 16 boundary/read
	// rounds of 8 reads each (timed). Bounding the rounds per transaction
	// keeps the vertex chain at depth+16 regardless of b.N, so ns/op
	// reflects chain depth, not iteration count.
	const rounds, readsPerRound = 16, 8
	for _, depth := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			sys, boxes := newCoreBench(depth)
			b.ReportAllocs()
			n := 0
			b.ResetTimer()
			b.StopTimer()
			for n < b.N {
				err := sys.Atomic(func(tx *core.Tx) error {
					for i := 0; i < depth; i++ {
						i := i
						f := tx.Submit(func(ftx *core.Tx) (any, error) {
							ftx.Write(boxes[i], i)
							return nil, nil
						})
						if _, err := tx.Evaluate(f); err != nil {
							return err
						}
					}
					marker := tx.Submit(func(*core.Tx) (any, error) { return nil, nil })
					if _, err := tx.Evaluate(marker); err != nil {
						return err
					}
					b.StartTimer()
					for k := 0; k < rounds && n < b.N; k++ {
						// Idempotent re-evaluation: a boundary that binds a
						// fresh vertex, emptying the repeated-read cache.
						if _, err := tx.Evaluate(marker); err != nil {
							return err
						}
						for r := 0; r < readsPerRound; r++ {
							_ = tx.Read(boxes[(n+r)%depth])
						}
						n++
					}
					b.StopTimer()
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAtomicSingleWrite measures a top-level transaction that submits
// no future: one read-modify-write of one box, the shape of a served
// single-key PUT. It prices what the engine adds around the substrate commit
// when the graph is a single root vertex.
func BenchmarkAtomicSingleWrite(b *testing.B) {
	sys, boxes := newCoreBench(1)
	box := boxes[0]
	body := func(tx *core.Tx) error {
		tx.Write(box, tx.Read(box).(int)+1)
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := sys.Atomic(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitEvaluate measures one submit+merge+evaluate round trip at
// varying chain depths (the chain grows across the transaction, so deeper
// configurations stress merge bookkeeping and ancestor updates). The
// merged@sub column is the share of futures that serialized at submission
// rather than at their evaluation.
func BenchmarkSubmitEvaluate(b *testing.B) {
	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			sys, boxes := newCoreBench(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += depth {
				err := sys.Atomic(func(tx *core.Tx) error {
					for i := 0; i < depth; i++ {
						i := i
						f := tx.Submit(func(ftx *core.Tx) (any, error) {
							ftx.Write(boxes[i], ftx.Read(boxes[i]).(int)+1)
							return nil, nil
						})
						if _, err := tx.Evaluate(f); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := sys.Stats().Snapshot()
			b.ReportMetric(Rate(st.MergedAtSubmission, st.FuturesSubmitted), "merged@sub")
		})
	}
}

// BenchmarkValidateWide measures a wide fan-out: one spawner submits
// `width` sibling futures with disjoint write sets, then evaluates them
// all. Every merge forward-validates against the sibling vertices, so the
// point stresses the conflict-summary skip path (disjoint sets should
// never need a full read-set scan).
func BenchmarkValidateWide(b *testing.B) {
	for _, width := range []int{4, 8, 16, 64} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			sys, boxes := newCoreBench(width)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += width {
				err := sys.Atomic(func(tx *core.Tx) error {
					futs := make([]*core.Future, width)
					for i := 0; i < width; i++ {
						i := i
						futs[i] = tx.Submit(func(ftx *core.Tx) (any, error) {
							ftx.Write(boxes[i], ftx.Read(boxes[i]).(int)+1)
							return nil, nil
						})
					}
					for _, f := range futs {
						if _, err := tx.Evaluate(f); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
