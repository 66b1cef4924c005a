package persist

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"wtftm/internal/wal"
)

// model is the reference store the tests recover into: shard → key → value.
type model []map[string]string

func newModel(shards int) model {
	m := make(model, shards)
	for i := range m {
		m[i] = make(map[string]string)
	}
	return m
}

func (m model) clone() model {
	out := make(model, len(m))
	for i, sh := range m {
		out[i] = make(map[string]string, len(sh))
		for k, v := range sh {
			out[i][k] = v
		}
	}
	return out
}

// opts builds Options wired to mutate dst.
func opts(fs wal.FS, dst model, segBytes int64, snapEvery int64, sync wal.SyncPolicy) Options {
	return Options{
		FS:            fs,
		Dir:           "data",
		Shards:        len(dst),
		Sync:          sync,
		SegmentBytes:  segBytes,
		SnapshotEvery: snapEvery,
		Source: func(shard int, emit func(string, []byte) error) error {
			for k, v := range dst[shard] {
				if err := emit(k, []byte(v)); err != nil {
					return err
				}
			}
			return nil
		},
		Restore: func(shard int, key string, val []byte) error {
			dst[shard][key] = string(val)
			return nil
		},
		Apply: func(shard int, seq uint64, payload []byte) error {
			return wal.DecodeBatch(payload, func(op wal.Op) error {
				switch op.Kind {
				case wal.OpPut:
					dst[shard][op.Key] = string(op.Val)
				case wal.OpDel:
					delete(dst[shard], op.Key)
				}
				return nil
			})
		},
	}
}

// appendPut logs one single-op put batch through the commit path.
func appendPut(t *testing.T, m *Manager, live model, shard int, key, val string) error {
	t.Helper()
	b := wal.AppendBatchHeader(nil, 1)
	b = wal.AppendPut(b, key, []byte(val))
	m.Lock(shard)
	_, err := m.Append(shard, b)
	if err == nil {
		live[shard][key] = val
	}
	m.Unlock(shard)
	if err != nil {
		return err
	}
	return m.Sync(shard)
}

func TestRecoverEmptyDir(t *testing.T) {
	fs := wal.NewMemFS()
	dst := newModel(4)
	m, err := Open(opts(fs, dst, 0, 0, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if len(dst[i]) != 0 {
			t.Fatalf("shard %d non-empty after empty recovery", i)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripWithCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	live := newModel(3)
	m, err := Open(opts(fs, live, 512, 0, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		sh := i % 3
		if err := appendPut(t, m, live, sh, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if i == 45 {
			for sh := range live {
				if err := m.Checkpoint(sh); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want := live.clone()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	got := newModel(3)
	m2, err := Open(opts(fs, got, 512, 0, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !reflect.DeepEqual(model(got), want) {
		t.Fatalf("recovered state != written state\ngot:  %v\nwant: %v", got, want)
	}
	if m2.Stats().RecoveredRecords == 0 {
		t.Fatal("expected some records replayed past the checkpoint")
	}
}

// TestCheckpointCompacts verifies automatic checkpoints (SnapshotEvery)
// actually shrink the log and that recovery still sees everything.
func TestCheckpointCompacts(t *testing.T) {
	fs := wal.NewMemFS()
	live := newModel(1)
	m, err := Open(opts(fs, live, 256, 10, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := appendPut(t, m, live, 0, fmt.Sprintf("k%02d", i%20), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if i == 99 || i == 199 {
			// Deterministic compaction barrier: the second checkpoint
			// compacts through the first's seq regardless of how the async
			// SnapshotEvery kicks interleaved.
			if err := m.Checkpoint(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := live.clone()
	if err := m.Close(); err != nil { // waits for in-flight checkpoints
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Snapshots < 2 {
		t.Fatalf("Snapshots = %d, want ≥ 2", st.Snapshots)
	}
	if st.RemovedSegments == 0 {
		t.Fatal("checkpoints never compacted the log")
	}

	got := newModel(1)
	m2, err := Open(opts(fs, got, 256, 10, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !reflect.DeepEqual(model(got), want) {
		t.Fatalf("recovered state != written state after compaction\ngot:  %v\nwant: %v", got, want)
	}
}

// TestSnapshotFallback corrupts the newest snapshot and verifies recovery
// falls back to the older one plus a longer log replay, with identical state.
func TestSnapshotFallback(t *testing.T) {
	fs := wal.NewMemFS()
	live := newModel(1)
	m, err := Open(opts(fs, live, 1<<20, 0, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := appendPut(t, m, live, 0, fmt.Sprintf("k%02d", i), "a"); err != nil {
			t.Fatal(err)
		}
		if i == 9 || i == 19 {
			if err := m.Checkpoint(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := live.clone()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the newest snapshot (seq 20).
	dir := "data/shard-000"
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, n := range names {
		if _, ok := parseSnapName(n); ok {
			newest = n // sorted ascending; last wins
		}
	}
	if newest == "" {
		t.Fatal("no snapshot written")
	}
	f, err := fs.OpenFile(dir+"/"+newest, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(snapHeader+2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got := newModel(1)
	m2, err := Open(opts(fs, got, 1<<20, 0, wal.SyncGroup))
	if err != nil {
		t.Fatalf("recovery with corrupt newest snapshot: %v", err)
	}
	defer m2.Close()
	if !reflect.DeepEqual(model(got), want) {
		t.Fatalf("fallback recovery state mismatch\ngot:  %v\nwant: %v", got, want)
	}
}

// TestCrashPrefixProperty is the package-level crash sweep: arm a fault at
// every interesting op count, run traffic until the disk dies, crash, recover
// from the post-crash view, and require the recovered state to be a prefix of
// the synced-acknowledged sequence (never missing an acked write, never
// containing a corrupt one).
func TestCrashPrefixProperty(t *testing.T) {
	for _, sync := range []wal.SyncPolicy{wal.SyncGroup, wal.SyncAlways} {
		for fault := 1; fault <= 60; fault += 4 {
			for _, torn := range []int{0, 5} {
				name := fmt.Sprintf("%v/fault%d/torn%d", sync, fault, torn)
				fs := wal.NewMemFS()
				live := newModel(2)
				m, err := Open(opts(fs, live, 300, 12, sync))
				if err != nil {
					t.Fatal(err)
				}
				fs.FailAfter(wal.FaultAllOps, fault)

				// states[j] = model after the first j acked appends.
				states := []model{newModel(2)}
				acked := 0
				for i := 0; i < 80; i++ {
					sh := i % 2
					key, val := fmt.Sprintf("k%02d", i%10), fmt.Sprintf("v%d", i)
					if err := appendPut(t, m, live, sh, key, val); err != nil {
						break // disk died; everything acked so far must survive
					}
					next := states[len(states)-1].clone()
					next[sh][key] = val
					states = append(states, next)
					acked++
				}
				view := fs.CrashClone(torn)
				m.Close()

				got := newModel(2)
				m2, err := Open(opts(view, got, 300, 12, sync))
				if err != nil {
					t.Fatalf("%s: recovery: %v", name, err)
				}
				m2.Close()

				matched := -1
				for j := len(states) - 1; j >= 0; j-- {
					if reflect.DeepEqual(model(got), states[j]) {
						matched = j
						break
					}
				}
				if matched < acked {
					t.Fatalf("%s: recovered state matches prefix %d, but %d appends were acked durable", name, matched, acked)
				}
			}
		}
	}
}

// TestOSFSRoundTrip exercises the manager against the real file system once.
func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	live := newModel(2)
	o := opts(nil, live, 512, 5, wal.SyncGroup)
	o.Dir = dir
	m, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := appendPut(t, m, live, i%2, fmt.Sprintf("k%02d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	want := live.clone()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	got := newModel(2)
	o2 := opts(nil, got, 512, 5, wal.SyncGroup)
	o2.Dir = dir
	m2, err := Open(o2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !reflect.DeepEqual(model(got), want) {
		t.Fatalf("recovered state mismatch on OS fs\ngot:  %v\nwant: %v", got, want)
	}
}

// TestRefusesPerShardLogLayout: a data directory whose shard directories
// hold WAL segments was written with one log per shard. Its snapshot seqs
// count that shard's records, not the one log's, so Open must refuse it by
// name instead of recovering from the snapshots alone.
func TestRefusesPerShardLogLayout(t *testing.T) {
	fs := wal.NewMemFS()
	old, err := wal.Open(wal.Options{FS: fs, Dir: "data/shard-001"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Append(wal.AppendPut(wal.AppendBatchHeader(nil, 1), "k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := Open(opts(fs, newModel(2), 0, 0, wal.SyncGroup))
	if err == nil {
		m.Close()
		t.Fatal("Open accepted a directory with per-shard logs")
	}
	if !strings.Contains(err.Error(), "per-shard write-ahead log") || !strings.Contains(err.Error(), "data/shard-001") {
		t.Fatalf("error does not name the per-shard layout: %v", err)
	}
}

// TestSkewedWritesCompact: one shard receives a single write and then none,
// while another receives thousands. The idle shard's lone record must not
// pin the log: the checkpoints the busy shard triggers have to advance the
// compaction floor past it, and recovery must still see both shards. Each
// put waits for the checkpoints it kicked, so the schedule is deterministic.
func TestSkewedWritesCompact(t *testing.T) {
	fs := wal.NewMemFS()
	live := newModel(2)
	m, err := Open(opts(fs, live, 256, 10, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendPut(t, m, live, 1, "idle", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := appendPut(t, m, live, 0, fmt.Sprintf("k%02d", i%20), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		m.wg.Wait() // let every checkpoint this put kicked finish
	}
	want := live.clone()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// With one log per shard this schedule left 3 segments (shard 0's log
	// compacted behind its own checkpoints); the one log must keep no more.
	// Without a checkpoint of the idle shard, none of the 249 is removed.
	st := m.Stats()
	if st.Segments > 3 {
		t.Fatalf("%d segments remain (%d removed): the idle shard pins the log", st.Segments, st.RemovedSegments)
	}

	got := newModel(2)
	m2, err := Open(opts(fs, got, 256, 10, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state != written state\ngot:  %v\nwant: %v", got, want)
	}
}

// TestOneFsyncPerBarrier: however many shards a unit writes, the barrier
// after it is one fsync of the one log.
func TestOneFsyncPerBarrier(t *testing.T) {
	fs := wal.NewMemFS()
	live := newModel(16)
	m, err := Open(opts(fs, live, 0, 0, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for round, width := range []int{1, 4, 16} {
		var rec []byte
		for sh := 0; sh < width; sh++ {
			m.Lock(sh)
			batch := wal.AppendPut(wal.AppendBatchHeader(nil, 1), fmt.Sprintf("r%d", round), []byte("v"))
			rec = AppendPart(rec, sh, batch)
		}
		_, err := m.AppendUnit(rec)
		for sh := 0; sh < width; sh++ {
			m.Unlock(sh)
		}
		if err != nil {
			t.Fatal(err)
		}
		before := m.Stats().Fsyncs
		if err := m.Sync(0); err != nil {
			t.Fatal(err)
		}
		if n := m.Stats().Fsyncs - before; n != 1 {
			t.Fatalf("a unit over %d shards: the barrier issued %d fsyncs, want 1", width, n)
		}
	}
}
