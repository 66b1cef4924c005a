package mvstm

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// boxSetModel is FuzzBoxSet's reference: the entries of a BoxSet as a Go map,
// and their iteration order.
type boxSetModel struct {
	order []*VBox
	val   map[*VBox]int
}

func (m *boxSetModel) put(b *VBox, v int) {
	if _, ok := m.val[b]; !ok {
		m.order = append(m.order, b)
	}
	m.val[b] = v
}

// fuzzKeep is FuzzBoxSet's keep function for absorb: it folds both values
// into one, so the model can tell which entry was kept and which dropped.
func fuzzKeep(kept, dropped int) int { return kept*1000 + dropped%1000 }

// absorb is BoxSet.Absorb: a box both hold keeps fuzzKeep(target's value,
// source's); when the storage swaps, the source's order comes first and the
// target's other entries follow.
func (m *boxSetModel) absorb(src *boxSetModel, swap bool) {
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

// checkBoxSet compares s with its model and checks the spilled layout's
// invariants.
func checkBoxSet(t *testing.T, step int, s *BoxSet[int], m *boxSetModel, absent *VBox) {
	t.Helper()
	if s.Size() != len(m.order) {
		t.Fatalf("step %d: size %d, model has %d", step, s.Size(), len(m.order))
	}
	seen := map[*VBox]bool{}
	i := 0
	for b, v := range s.All() {
		switch {
		case seen[b]:
			t.Fatalf("step %d: All() yielded %s twice", step, b.Name)
		case i >= len(m.order) || m.order[i] != b:
			t.Fatalf("step %d: All() yielded %s at %d, out of insertion order", step, b.Name, i)
		case v != m.val[b]:
			t.Fatalf("step %d: %s holds %d, model %d", step, b.Name, v, m.val[b])
		}
		seen[b] = true
		i++
	}
	if i != len(m.order) {
		t.Fatalf("step %d: All() yielded %d entries, model has %d", step, i, len(m.order))
	}
	for b, want := range m.val {
		if v, ok := s.Get(b); !ok || v != want {
			t.Fatalf("step %d: Get(%s) = %d, %v; model %d", step, b.Name, v, ok, want)
		}
	}
	if _, ok := m.val[absent]; !ok {
		if _, ok := s.Get(absent); ok {
			t.Fatalf("step %d: Get(%s) found a box the set does not hold", step, absent.Name)
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

// fuzzBudget is the budget an absorbed set is reset against: more than the
// 4000 entries a tape can put in a set, so its storage is always kept.
const fuzzBudget = 1 << 15

// FuzzBoxSet drives two BoxSets through Put, Slot+At+Add, Absorb (either
// way, swapping storage or not) and Reset against a Go-map model, across
// several index doublings: All() never yields a duplicate and follows
// insertion order, Absorb keeps keep(target's entry, source's entry) for a
// box both sets held, an entry Add returns is the one Slot and At find
// next (also when that Add spilled the set or grew its index), and At after
// a Slot hit is the model's value. Each pair of tape bytes is one operation: the
// first picks it (low 3 bits) and the set (top bit), the second a box or a
// budget. Explore with `go test -run '^$' -fuzz FuzzBoxSet ./internal/mvstm/`.
func FuzzBoxSet(f *testing.F) {
	// The seeds cover: bulk puts that take an index to 256 slots, then
	// overwrites; a set that spills just past the inline capacity; resets
	// under a small budget; overwrites that stay inline; an absorb that swaps
	// storage. Ops 0, 1 and 3 are all puts.
	f.Add([]byte{4, 0, 4, 40, 4, 80, 3, 5, 3, 50, 0, 5, 2, 6, 7, 5, 0x84, 3, 0x84, 43, 5, 0, 3, 7, 1, 7})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 3, 1, 0, 1, 3, 5, 0, 9, 0x80, 1, 0x80, 9, 0x85, 0, 6, 0})
	f.Add([]byte{4, 10, 0x84, 20, 0x84, 60, 0x85, 0, 6, 255, 4, 0, 3, 2, 3, 3, 0, 2, 6, 1, 4, 7, 7, 9})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 2, 0, 2, 1, 1, 7, 2, 3, 9, 2, 4, 3, 1, 5, 0})
	f.Add([]byte{0x84, 100, 0x84, 140, 0x83, 101, 0x83, 102, 0x80, 101, 5, 0, 4, 30, 5, 0, 0x86, 0, 4, 0})
	pool := make([]*VBox, 200)
	stm := New()
	for i := range pool {
		pool[i] = stm.NewBoxNamed(fmt.Sprintf("b%d", i), 0)
	}
	absent := stm.NewBoxNamed("absent", 0)
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 200 {
			tape = tape[:200]
		}
		var sets [2]BoxSet[int]
		models := [2]boxSetModel{{val: map[*VBox]int{}}, {val: map[*VBox]int{}}}
		for step := 0; step+1 < len(tape); step += 2 {
			op, arg := tape[step], int(tape[step+1])
			k := int(op >> 7)
			s, m := &sets[k], &models[k]
			b := pool[arg%len(pool)]
			switch op & 7 {
			case 0, 1, 3:
				s.Put(b, step)
				m.put(b, step)
			case 2: // fill in place: the entry Add returns on a miss, as the engine's first reads do, or At's on a hit
				slot, ok := s.Slot(b)
				var e *int
				if ok {
					e = s.At(slot)
					if want := m.val[b]; *e != want {
						t.Fatalf("step %d: At(Slot(%s)) holds %d, model %d", step, b.Name, *e, want)
					}
				} else {
					e = s.Add(slot, b)
					if *e != 0 {
						t.Fatalf("step %d: Add(%s) returned an entry holding %d", step, b.Name, *e)
					}
				}
				*e = step
				m.put(b, step)
				if slot, ok := s.Slot(b); !ok || s.At(slot) != e {
					t.Fatalf("step %d: the entry filled for %s is not the one Slot and At find (found %v)", step, b.Name, ok)
				}
			case 4: // 40 boxes in a row
				for j := 0; j < 40; j++ {
					b := pool[(arg+j)%len(pool)]
					s.Put(b, step)
					m.put(b, step)
				}
			case 5: // absorb the other set, which is then reset
				src, srcM := &sets[1-k], &models[1-k]
				swap := src.n < 0 && src.Size() > s.Size()
				s.Absorb(src, fuzzKeep)
				m.absorb(srcM, swap)
				budget := fuzzBudget
				src.Reset(&budget)
				*srcM = boxSetModel{val: map[*VBox]int{}}
			case 6: // reset against a budget of 0 to 1020 entries
				budget := 4 * arg
				before := budget
				s.Reset(&budget)
				if s.d != nil && (s.hw > before || budget != before-s.hw) || s.d == nil && budget != before {
					t.Fatalf("step %d: reset kept %v storage of %d entries, budget %d -> %d", step, s.d != nil, s.hw, before, budget)
				}
				*m = boxSetModel{val: map[*VBox]int{}}
			case 7:
				v, ok := s.Get(b)
				if want, in := m.val[b]; ok != in || v != want {
					t.Fatalf("step %d: Get(%s) = %d, %v; model %d, %v", step, b.Name, v, ok, want, in)
				}
				if slot, ok := s.Slot(b); ok && *s.At(slot) != v {
					t.Fatalf("step %d: At(Slot(%s)) holds %d, Get %d", step, b.Name, *s.At(slot), v)
				}
			}
			checkBoxSet(t, step, &sets[0], &models[0], absent)
			checkBoxSet(t, step, &sets[1], &models[1], absent)
		}
	})
}

// TestBoxSetAddInPlace fills entries through the pointers Add returns while
// the set stays inline, spills (the fifth Add) and grows its index (the
// ninth and seventeenth): each pointer is the entry Slot and At find until
// the next Add, and what was written through it is what the set holds
// afterwards, in insertion order.
func TestBoxSetAddInPlace(t *testing.T) {
	stm := New()
	var s BoxSet[[2]int]
	var boxes []*VBox
	for i := 0; i < 40; i++ {
		b := stm.NewBoxNamed(fmt.Sprintf("b%d", i), 0)
		boxes = append(boxes, b)
		slot, ok := s.Slot(b)
		if ok {
			t.Fatalf("Slot(%s) hit before Add", b.Name)
		}
		e := s.Add(slot, b)
		if *e != [2]int{} {
			t.Fatalf("Add(%s) returned an entry holding %v", b.Name, *e)
		}
		e[0] = i
		if slot, ok := s.Slot(b); !ok || s.At(slot) != e {
			t.Fatalf("after Add(%s) at size %d: Slot/At found %v, not the added entry", b.Name, s.Size(), ok)
		}
		e[1] = -i // written after the lookup: still the set's entry
		if s.Size() == BoxSetInline+1 && s.n >= 0 {
			t.Fatalf("the set holds %d entries inline", s.Size())
		}
	}
	i := 0
	for b, v := range s.All() {
		if b != boxes[i] || v != [2]int{i, -i} {
			t.Fatalf("entry %d is %s = %v, want %s = %v", i, b.Name, v, boxes[i].Name, [2]int{i, -i})
		}
		i++
	}
	for i, b := range boxes {
		slot, ok := s.Slot(b)
		if !ok {
			t.Fatalf("Slot(%s) missed", b.Name)
		}
		s.At(slot)[1] = i
		if v, _ := s.Get(b); v != [2]int{i, i} {
			t.Fatalf("Get(%s) = %v after a write through At, want %v", b.Name, v, [2]int{i, i})
		}
	}
}
