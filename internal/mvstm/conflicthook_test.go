package mvstm

import (
	"errors"
	"testing"
)

// The conflict hook must fire exactly once per failed validation, with the
// stale box that killed the transaction, and never on success.
func TestConflictHookAttribution(t *testing.T) {
	s := New()
	var got []*VBox
	s.SetConflictHook(func(b *VBox) { got = append(got, b) })

	loser := s.NewBoxNamed("shard3.b7", 0)
	other := s.NewBoxNamed("shard1.b2", 0)

	// Clean commit: no hook calls.
	tx := s.Begin()
	tx.Read(other)
	tx.Write(other, 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("hook fired on clean commit: %v", got)
	}

	// First-committer-wins race: tx2 read loser, a peer overwrites it,
	// tx2's commit must abort and attribute the conflict to loser.
	tx2 := s.Begin()
	tx2.Read(loser)
	peer := s.Begin()
	peer.Write(loser, 42)
	if err := peer.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2.Write(other, 2)
	if err := tx2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit err = %v, want ErrConflict", err)
	}
	if len(got) != 1 || got[0] != loser {
		t.Fatalf("hook calls = %v, want exactly [loser=%p]", got, loser)
	}
	if got[0].Name != "shard3.b7" {
		t.Fatalf("attributed box name = %q", got[0].Name)
	}

	// A read set past its inline capacity, two of its boxes overwritten by
	// a peer: the hook gets the one read first, whatever the boxes' hashes.
	wide := make([]*VBox, 16*BoxSetInline)
	for i := range wide {
		wide[i] = s.NewBox(0)
	}
	first, second := wide[BoxSetInline+2], wide[3]
	tx3 := s.Begin()
	for i := len(wide) - 1; i >= 0; i-- {
		tx3.Read(wide[i])
	}
	if err := s.Atomic(func(p *Txn) error { p.Write(second, 1); p.Write(first, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	got = nil
	tx3.Write(other, 3)
	if err := tx3.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit err = %v, want ErrConflict", err)
	}
	if len(got) != 1 || got[0] != first {
		t.Fatalf("hook calls = %v, want exactly [first=%p] (second=%p)", got, first, second)
	}
}
