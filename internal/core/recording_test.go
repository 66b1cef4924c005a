package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"wtftm/internal/history"
	"wtftm/internal/mvstm"
)

// TestRecordingContract pins down the exact event sequence the engine emits
// for a deterministic, serialized program — the contract cmd/fsgcheck and
// fsg.FromLog rely on.
func TestRecordingContract(t *testing.T) {
	rec := history.NewRecorder()
	stm := mvstm.New()
	sys := New(stm, Options{Ordering: WO, Atomicity: LAC, Recorder: rec})
	x := stm.NewBoxNamed("x", 0)

	started := make(chan struct{})
	err := sys.Atomic(func(tx *Tx) error {
		tx.Write(x, 1)
		f := tx.Submit(func(ftx *Tx) (any, error) {
			_ = ftx.Read(x)
			close(started)
			return nil, nil
		})
		<-started // serialize the interleaving for a stable log
		<-f.Done()
		// Done closes when the body returns, before the future settles;
		// wait until the merge itself is on record, ahead of the evaluate.
		for merged := false; !merged; runtime.Gosched() {
			for _, op := range rec.Ops() {
				merged = merged || op.Kind == history.FutureMerge
			}
		}
		_, err := tx.Evaluate(f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	var kinds []string
	for _, op := range rec.Ops() {
		s := op.Kind.String()
		if op.Var != "" {
			s += ":" + op.Var
		}
		kinds = append(kinds, s)
	}
	got := strings.Join(kinds, " ")
	// The merge may be recorded at submission (future finished and validated
	// before the evaluate) — the gates above force exactly that order.
	want := []string{
		"topBegin",
		"write:x",
		"submit",
		"futureBegin",
		"read:x",
		"futureMerge",
		"evaluate",
		"topCommit",
	}
	if got != strings.Join(want, " ") {
		t.Fatalf("recorded sequence:\n  got:  %s\n  want: %s", got, strings.Join(want, " "))
	}

	// The read must have observed the spawner's uncommitted write.
	for _, op := range rec.Ops() {
		if op.Kind == history.Read {
			if !strings.HasPrefix(op.Obs, "w") {
				t.Fatalf("future's read observed %q, want an uncommitted write id", op.Obs)
			}
		}
		if op.Kind == history.TopCommit && op.WID == 0 {
			t.Fatal("read-write commit recorded without a clock timestamp")
		}
	}
}

// TestRecordingUserAbortEmitsTopAbort verifies permanently aborted attempts
// are marked so FromLog can drop them.
func TestRecordingUserAbortEmitsTopAbort(t *testing.T) {
	rec := history.NewRecorder()
	stm := mvstm.New()
	sys := New(stm, Options{Recorder: rec})
	x := stm.NewBoxNamed("x", 0)
	_ = sys.Atomic(func(tx *Tx) error {
		tx.Write(x, 1)
		tx.Abort(fmt.Errorf("no"))
		return nil
	})
	aborts, commits := 0, 0
	for _, op := range rec.Ops() {
		switch op.Kind {
		case history.TopAbort:
			aborts++
		case history.TopCommit:
			commits++
		}
	}
	if aborts != 1 || commits != 0 {
		t.Fatalf("aborts=%d commits=%d", aborts, commits)
	}
}
