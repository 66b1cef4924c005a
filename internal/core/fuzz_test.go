package core

import (
	"fmt"
	"testing"

	"wtftm/internal/fsg"
	"wtftm/internal/history"
	"wtftm/internal/mvstm"
)

// FuzzEngineSerializability interprets a byte tape as a single-threaded
// program of transactional-future operations, runs it under both orderings,
// and checks (a) SO matches the future-free elision exactly and (b) every
// recorded history is FSG-serializable. Explore beyond the seeds with
// `go test -fuzz=FuzzEngineSerializability`.
func FuzzEngineSerializability(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 4, 5, 5, 4, 5})
	f.Add([]byte{2, 2, 2, 4, 0, 5, 2})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 40 {
			tape = tape[:40]
		}
		run := func(ord Ordering, useFutures bool, rec *history.Recorder) []int {
			stm := mvstm.New()
			sys := New(stm, Options{Ordering: ord, Atomicity: LAC, Recorder: rec})
			const nBoxes = 3
			boxes := make([]*mvstm.VBox, nBoxes)
			for i := range boxes {
				boxes[i] = stm.NewBoxNamed(fmt.Sprintf("v%d", i), 1)
			}
			err := sys.Atomic(func(tx *Tx) error {
				var futs []*Future
				for i, b := range tape {
					box := boxes[int(b)%nBoxes]
					mult := 2 + int(b)%3
					step := func(s *Tx) {
						s.Write(box, s.Read(box).(int)*mult%1000003)
					}
					switch (int(b) / nBoxes) % 3 {
					case 0:
						step(tx)
					case 1:
						if useFutures {
							futs = append(futs, tx.Submit(func(ftx *Tx) (any, error) {
								step(ftx)
								return i, nil
							}))
						} else {
							step(tx)
						}
					case 2:
						if len(futs) > 0 {
							f := futs[0]
							futs = futs[1:]
							if _, err := tx.Evaluate(f); err != nil {
								return err
							}
						}
					}
				}
				for _, f := range futs {
					if _, err := tx.Evaluate(f); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int, nBoxes)
			txn := stm.Begin()
			for i, b := range boxes {
				out[i] = txn.Read(b).(int)
			}
			txn.Discard()
			return out
		}

		oracle := run(SO, false, nil)
		recSO := history.NewRecorder()
		so := run(SO, true, recSO)
		if fmt.Sprint(so) != fmt.Sprint(oracle) {
			t.Fatalf("SO = %v, sequential oracle = %v", so, oracle)
		}
		recWO := history.NewRecorder()
		_ = run(WO, true, recWO)

		for name, tc := range map[string]struct {
			rec *history.Recorder
			sem fsg.Semantics
		}{"SO": {recSO, fsg.SOsem}, "WO": {recWO, fsg.WOsem}} {
			h, err := fsg.FromLog(tc.rec.Ops())
			if err != nil {
				t.Fatalf("%s FromLog: %v", name, err)
			}
			p, err := fsg.Build(h, tc.sem)
			if err != nil {
				t.Fatalf("%s Build: %v", name, err)
			}
			if !p.Acyclic() {
				t.Fatalf("%s history not serializable", name)
			}
		}
	})
}
