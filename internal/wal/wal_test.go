package wal

import (
	"bytes"
	"fmt"
	"os"
	"path"
	"testing"
)

// collect replays the whole log into a slice of payload copies.
func collect(t *testing.T, l *Log, after uint64) [][]byte {
	t.Helper()
	var out [][]byte
	if err := l.Replay(after, func(seq uint64, payload []byte) error {
		out = append(out, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d-%s", i, string(bytes.Repeat([]byte{byte(i)}, i%37))))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncGroup, SyncAlways, SyncOff} {
		t.Run(pol.String(), func(t *testing.T) {
			fs := NewMemFS()
			l, err := Open(Options{FS: fs, Dir: "d", Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			recs := payloads(100)
			for i, p := range recs {
				seq, err := l.Append(p)
				if err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
				if seq != uint64(i+1) {
					t.Fatalf("seq = %d, want %d", seq, i+1)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			got := collect(t, l, 0)
			if len(got) != len(recs) {
				t.Fatalf("replayed %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if !bytes.Equal(got[i], recs[i]) {
					t.Fatalf("record %d mismatch", i)
				}
			}
			// Replay from the middle.
			mid := collect(t, l, 60)
			if len(mid) != 40 || !bytes.Equal(mid[0], recs[60]) {
				t.Fatalf("Replay(60): %d records, first %q", len(mid), mid[0])
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte("x")); err != ErrClosed {
				t.Fatalf("Append after Close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestReopenContinuesSeq(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "d", SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	recs := payloads(50)
	for _, p := range recs[:30] {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{FS: fs, Dir: "d", SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.LastSeq(); got != 30 {
		t.Fatalf("LastSeq after reopen = %d, want 30", got)
	}
	for _, p := range recs[30:] {
		if _, err := l2.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, l2, 0)
	if len(got) != 50 {
		t.Fatalf("replayed %d, want 50", len(got))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch after reopen", i)
		}
	}
	if l2.Stats().Segments < 2 {
		t.Fatalf("expected rotation with 256-byte segments, got %d segments", l2.Stats().Segments)
	}
	l2.Close()
}

// TestTornTailTruncation crashes (drops unsynced bytes, keeping 0..k torn
// bytes) after every record count and verifies recovery always yields a
// clean prefix of what was synced — the torn-tail repair property, swept
// deterministically over crash points.
func TestTornTailTruncation(t *testing.T) {
	recs := payloads(24)
	for synced := 0; synced <= len(recs); synced += 3 {
		for torn := 0; torn < 20; torn += 7 {
			fs := NewMemFS()
			l, err := Open(Options{FS: fs, Dir: "d", SegmentBytes: 300, Sync: SyncGroup})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range recs {
				if _, err := l.Append(p); err != nil {
					t.Fatal(err)
				}
				if i == synced-1 {
					if err := l.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			view := fs.CrashClone(torn)
			l.Close()

			l2, err := Open(Options{FS: view, Dir: "d", SegmentBytes: 300, Sync: SyncGroup})
			if err != nil {
				t.Fatalf("synced=%d torn=%d: reopen: %v", synced, torn, err)
			}
			got := collect(t, l2, 0)
			// Everything synced must survive; the torn suffix may contribute
			// extra whole records but never a corrupt one.
			if len(got) < synced {
				t.Fatalf("synced=%d torn=%d: only %d records recovered", synced, torn, len(got))
			}
			for i := range got {
				if !bytes.Equal(got[i], recs[i]) {
					t.Fatalf("synced=%d torn=%d: record %d corrupt after recovery", synced, torn, i)
				}
			}
			// The log must accept appends at the right seq after repair.
			seq, err := l2.Append([]byte("post-recovery"))
			if err != nil {
				t.Fatal(err)
			}
			if seq != uint64(len(got)+1) {
				t.Fatalf("post-recovery seq = %d, want %d", seq, len(got)+1)
			}
			l2.Close()
		}
	}
}

func TestRemoveThroughCompaction(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "d", SegmentBytes: 200, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	recs := payloads(60)
	for _, p := range recs {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats().Segments
	if before < 3 {
		t.Fatalf("want ≥ 3 segments, got %d", before)
	}
	if err := l.RemoveThrough(30); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.RemovedSegments == 0 || st.Segments >= before {
		t.Fatalf("compaction removed nothing: before=%d after=%d removed=%d", before, st.Segments, st.RemovedSegments)
	}
	// Records > 30 are all still replayable.
	got := collect(t, l, 30)
	if len(got) != 30 {
		t.Fatalf("replay after compaction: %d records, want 30", len(got))
	}
	for i, p := range got {
		if !bytes.Equal(p, recs[30+i]) {
			t.Fatalf("record %d mismatch after compaction", 30+i)
		}
	}
	// Compacting beyond the tail never removes the current segment.
	if err := l.RemoveThrough(10_000); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Segments < 1 {
		t.Fatal("current segment removed")
	}
	l.Close()
}

// TestAppendFaultIsSticky arms a write fault and verifies the log refuses
// appends from the fault on, and that recovery from the crashed disk yields
// only whole, valid records.
func TestAppendFaultIsSticky(t *testing.T) {
	for _, ops := range []FaultOp{FaultWrite, FaultSync, FaultCreate} {
		fs := NewMemFS()
		l, err := Open(Options{FS: fs, Dir: "d", SegmentBytes: 256, Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		fs.FailAfter(ops, 5)
		var lastOK uint64
		var failed bool
		for _, p := range payloads(40) {
			seq, err := l.Append(p)
			if err != nil {
				failed = true
				break
			}
			lastOK = seq
		}
		if !failed {
			t.Fatalf("ops=%v: no append failed despite armed fault", ops)
		}
		if _, err := l.Append([]byte("after")); err == nil {
			t.Fatalf("ops=%v: append after fault succeeded (sticky error lost)", ops)
		}
		view := fs.CrashClone(0)
		l.Close()
		l2, err := Open(Options{FS: view, Dir: "d", SegmentBytes: 256, Sync: SyncAlways})
		if err != nil {
			t.Fatalf("ops=%v: recovery: %v", ops, err)
		}
		got := collect(t, l2, 0)
		if uint64(len(got)) > lastOK {
			// Under SyncAlways every successful append was synced, and a
			// failed one may at worst leave a torn (CRC-invalid) frame.
			t.Fatalf("ops=%v: recovered %d records, only %d were acked", ops, len(got), lastOK)
		}
		l2.Close()
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var b []byte
	b = AppendBatchHeader(b, 3)
	b = AppendPut(b, "alpha", []byte("one"))
	b = AppendDel(b, "beta")
	b = AppendPut(b, "gamma", nil)
	var got []Op
	if err := DecodeBatch(b, func(op Op) error {
		got = append(got, Op{Kind: op.Kind, Key: op.Key, Val: append([]byte(nil), op.Val...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Kind: OpPut, Key: "alpha", Val: []byte("one")},
		{Kind: OpDel, Key: "beta"},
		{Kind: OpPut, Key: "gamma", Val: []byte{}},
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Key != want[i].Key || !bytes.Equal(got[i].Val, want[i].Val) {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Trailing garbage is rejected.
	if err := DecodeBatch(append(b, 0xFF), func(Op) error { return nil }); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestOSFS smoke-tests the production FS implementation against a real
// temp directory (everything else runs on MemFS).
func TestOSFS(t *testing.T) {
	dir := path.Join(t.TempDir(), "wal")
	l, err := Open(Options{Dir: dir, SegmentBytes: 128, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	recs := payloads(20)
	for _, p := range recs {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, l2, 0)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d, want %d", len(got), len(recs))
	}
	l2.Close()

	// Torn tail on the real file system: chop bytes off the newest segment.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := names[len(names)-1].Name()
	fi, err := os.Stat(path.Join(dir, newest))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path.Join(dir, newest), fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	got = collect(t, l3, 0)
	if len(got) >= len(recs) || len(got) == 0 {
		t.Fatalf("torn-tail recovery kept %d records, want a shorter non-empty prefix", len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d corrupt after torn-tail recovery", i)
		}
	}
	l3.Close()
}

// syncOnceFS is a MemFS whose files' next fsync fails once armed: a
// transient barrier failure, after which the disk would accept fsyncs again.
type syncOnceFS struct {
	*MemFS
	armed bool
}

type syncOnceFile struct {
	File
	fs *syncOnceFS
}

func (s *syncOnceFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := s.MemFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncOnceFile{File: f, fs: s}, nil
}

func (f syncOnceFile) Sync() error {
	if f.fs.armed {
		f.fs.armed = false
		return fmt.Errorf("injected fsync failure")
	}
	return f.File.Sync()
}

// TestSyncFailureIsSticky: a group barrier whose fsync fails once keeps the
// log failing. The pages that fsync did not write may be gone, so a later
// barrier that succeeds must not advance the synced position past them, and
// no later append may be acknowledged either.
func TestSyncFailureIsSticky(t *testing.T) {
	fs := &syncOnceFS{MemFS: NewMemFS()}
	l, err := Open(Options{FS: fs, Dir: "d", Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	synced := l.synced.Load()
	fs.armed = true
	if err := l.Sync(); err == nil {
		t.Fatal("the barrier whose fsync failed returned nil")
	}
	if fs.armed {
		t.Fatal("the barrier did not fsync")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("the barrier after a failed fsync succeeded: the failure is not sticky")
	}
	if _, err := l.Append([]byte("third")); err == nil {
		t.Fatal("an append after a failed fsync succeeded: the failure is not sticky")
	}
	if got := l.synced.Load(); got != synced {
		t.Fatalf("the synced position moved from %d to %d after the failed fsync", synced, got)
	}
}
