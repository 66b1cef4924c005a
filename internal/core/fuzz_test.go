package core

import (
	"fmt"
	"maps"
	"slices"
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

// isetModel is FuzzIset's reference: the entries of an iset as a Go map,
// and their iteration order.
type isetModel struct {
	order []*mvstm.VBox
	val   map[*mvstm.VBox]int
}

func (m *isetModel) put(b *mvstm.VBox, v int) {
	if _, ok := m.val[b]; !ok {
		m.order = append(m.order, b)
	}
	m.val[b] = v
}

// fuzzKeep is FuzzIset's keep function for absorb: it folds both values
// into one, so the model can tell which entry was kept and which dropped.
func fuzzKeep(kept, dropped int) int { return kept*1000 + dropped%1000 }

// absorb is iset.absorb: a box both hold keeps fuzzKeep(target's value,
// source's); when the storage swaps, the source's order comes first and the
// target's other entries follow.
func (m *isetModel) absorb(src *isetModel, swap bool) {
	for b, v := range src.val {
		if old, ok := m.val[b]; ok {
			m.val[b] = fuzzKeep(old, v)
		}
	}
	if !swap {
		for _, b := range src.order {
			if _, ok := m.val[b]; !ok {
				m.put(b, src.val[b])
			}
		}
		return
	}
	old := *m
	m.order, m.val = slices.Clone(src.order), maps.Clone(src.val)
	for _, b := range old.order {
		m.put(b, old.val[b])
	}
}

// checkIset compares s with its model and checks the spilled layout's
// invariants.
func checkIset(t *testing.T, step int, s *iset[int], m *isetModel, absent *mvstm.VBox) {
	t.Helper()
	if s.size() != len(m.order) {
		t.Fatalf("step %d: size %d, model has %d", step, s.size(), len(m.order))
	}
	seen := map[*mvstm.VBox]bool{}
	i := 0
	for b, v := range s.all() {
		switch {
		case seen[b]:
			t.Fatalf("step %d: all() yielded %s twice", step, b.Name)
		case i >= len(m.order) || m.order[i] != b:
			t.Fatalf("step %d: all() yielded %s at %d, out of insertion order", step, b.Name, i)
		case v != m.val[b]:
			t.Fatalf("step %d: %s holds %d, model %d", step, b.Name, v, m.val[b])
		}
		seen[b] = true
		i++
	}
	if i != len(m.order) {
		t.Fatalf("step %d: all() yielded %d entries, model has %d", step, i, len(m.order))
	}
	for b, want := range m.val {
		if v, ok := s.get(b); !ok || v != want {
			t.Fatalf("step %d: get(%s) = %d, %v; model %d", step, b.Name, v, ok, want)
		}
	}
	if _, ok := m.val[absent]; !ok {
		if _, ok := s.get(absent); ok {
			t.Fatalf("step %d: get(%s) found a box the set does not hold", step, absent.Name)
		}
	}
	if s.n >= 0 {
		return
	}
	d := s.d
	if n := len(d.idx); n&(n-1) != 0 || 2*len(d.ents) > n || 1<<(32-d.shift) != n {
		t.Fatalf("step %d: spilled layout broken: %d entries, %d index slots, shift %d",
			step, len(d.ents), n, d.shift)
	}
}

// FuzzIset drives two isets through put, find+insert, absorb (either way,
// swapping storage or not) and reset against a Go-map model, across several
// index doublings: all() never yields a duplicate and follows insertion
// order, and absorb
// keeps keep(target's entry, source's entry) for a box both sets held. Each pair of tape bytes is one operation: the first
// picks it (low 3 bits) and the set (top bit), the second a box or a
// budget. Explore with `go test -run '^$' -fuzz FuzzIset ./internal/core/`.
func FuzzIset(f *testing.F) {
	// The seeds cover: bulk puts that take an index to 256 slots, then
	// overwrites; a set that spills just past the inline capacity; resets
	// under a small budget; overwrites that stay inline; an absorb that swaps
	// storage. Ops 0, 1 and 3 are all puts.
	f.Add([]byte{4, 0, 4, 40, 4, 80, 3, 5, 3, 50, 0, 5, 2, 6, 7, 5, 0x84, 3, 0x84, 43, 5, 0, 3, 7, 1, 7})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 3, 1, 0, 1, 3, 5, 0, 9, 0x80, 1, 0x80, 9, 0x85, 0, 6, 0})
	f.Add([]byte{4, 10, 0x84, 20, 0x84, 60, 0x85, 0, 6, 255, 4, 0, 3, 2, 3, 3, 0, 2, 6, 1, 4, 7, 7, 9})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 2, 0, 2, 1, 1, 7, 2, 3, 9, 2, 4, 3, 1, 5, 0})
	f.Add([]byte{0x84, 100, 0x84, 140, 0x83, 101, 0x83, 102, 0x80, 101, 5, 0, 4, 30, 5, 0, 0x86, 0, 4, 0})
	pool := make([]*mvstm.VBox, 200)
	stm := mvstm.New()
	for i := range pool {
		pool[i] = stm.NewBoxNamed(fmt.Sprintf("b%d", i), 0)
	}
	absent := stm.NewBoxNamed("absent", 0)
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 200 {
			tape = tape[:200]
		}
		var sets [2]iset[int]
		models := [2]isetModel{{val: map[*mvstm.VBox]int{}}, {val: map[*mvstm.VBox]int{}}}
		for step := 0; step+1 < len(tape); step += 2 {
			op, arg := tape[step], int(tape[step+1])
			k := int(op >> 7)
			s, m := &sets[k], &models[k]
			b := pool[arg%len(pool)]
			switch op & 7 {
			case 0, 1, 3:
				s.put(b, step)
				m.put(b, step)
			case 2: // insert at the slot a miss returns, as Tx.Read does
				if _, slot, ok := s.find(b); !ok {
					s.insert(slot, b, step)
					m.put(b, step)
				}
			case 4: // 40 boxes in a row
				for j := 0; j < 40; j++ {
					b := pool[(arg+j)%len(pool)]
					s.put(b, step)
					m.put(b, step)
				}
			case 5: // absorb the other set, which is then reset
				src, srcM := &sets[1-k], &models[1-k]
				swap := src.n < 0 && src.size() > s.size()
				s.absorb(src, fuzzKeep)
				m.absorb(srcM, swap)
				budget := arenaMapBudget
				src.reset(&budget)
				*srcM = isetModel{val: map[*mvstm.VBox]int{}}
			case 6: // reset against a budget of 0 to 1020 entries
				budget := 4 * arg
				before := budget
				s.reset(&budget)
				if s.d != nil && (s.hw > before || budget != before-s.hw) || s.d == nil && budget != before {
					t.Fatalf("step %d: reset kept %v storage of %d entries, budget %d -> %d", step, s.d != nil, s.hw, before, budget)
				}
				*m = isetModel{val: map[*mvstm.VBox]int{}}
			case 7:
				v, ok := s.get(b)
				if want, in := m.val[b]; ok != in || v != want {
					t.Fatalf("step %d: get(%s) = %d, %v; model %d, %v", step, b.Name, v, ok, want, in)
				}
			}
			checkIset(t, step, &sets[0], &models[0], absent)
			checkIset(t, step, &sets[1], &models[1], absent)
		}
	})
}
