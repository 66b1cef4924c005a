package server

// Crash-injection and durability tests for the serving path. Faults are
// deterministic — wal.MemFS counts mutating file operations and trips after
// an exact countdown — so every scenario here replays identically; none of
// these tests sleep or race a timer against the fault.
//
// The property under test (ISSUE 7): after a crash (kill -9 model:
// CrashClone drops unsynced bytes while the old process keeps running), a
// recovered server's state equals the state produced by some prefix of the
// operation sequence that is at least as long as the acknowledged prefix.
// Under -fsync group and always, no acknowledged write is ever lost.

import (
	"fmt"
	"maps"
	"testing"

	"wtftm"
	"wtftm/internal/client"
	"wtftm/internal/tstruct"
	"wtftm/internal/wal"
	"wtftm/internal/wire"
)

// dumpState reads every shard's committed entries through one snapshot
// transaction per shard.
func dumpState(t *testing.T, s *Server) map[string]string {
	t.Helper()
	out := make(map[string]string)
	var kvs []tstruct.KV
	for _, m := range s.store.shards {
		err := s.sys.Atomic(func(tx *wtftm.Tx) error {
			kvs = m.Snapshot(tx, kvs[:0])
			return nil
		})
		if err != nil {
			t.Fatalf("snapshot read: %v", err)
		}
		for _, kv := range kvs {
			out[kv.Key] = kv.Val.(string)
		}
	}
	return out
}

// recoverInto boots a non-listening server over the given (post-crash) file
// system and returns its recovered state.
func recoverInto(t *testing.T, cfg Config, fs wal.FS) map[string]string {
	t.Helper()
	cfg.FS = fs
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery New: %v", err)
	}
	defer s.Drain()
	return dumpState(t, s)
}

// TestDurableRoundTrip is the happy path on the real file system: write
// through a client, assert the STATS WAL section, drain, reopen the same
// data directory and read everything back.
func TestDurableRoundTrip(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	cfg := Config{Shards: 4, DataDir: dir, SnapshotEvery: 32, SegmentBytes: 4096}
	s := startServer(t, cfg)
	cl := newClient(t, s, 1)

	for i := 0; i < 100; i++ {
		if err := cl.Put(fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if _, err := cl.Del("k000"); err != nil {
		t.Fatal(err)
	}
	if ok, _, err := cl.CAS("k001", []byte("v001"), "cas-won"); err != nil || !ok {
		t.Fatalf("CAS = ok=%v err=%v, want match", ok, err)
	}
	if ok, _, err := cl.CAS("k002", []byte("wrong"), "never"); err != nil || ok {
		t.Fatalf("mismatched CAS = ok=%v err=%v, want mismatch", ok, err)
	}
	if _, applied, err := cl.Multi([]wire.Cmd{
		wire.Put("m1", []byte("multi-1")),
		wire.Del("k003"),
		wire.Get("k004"),
	}); err != nil || !applied {
		t.Fatalf("Multi: applied=%v err=%v", applied, err)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case st.WAL == nil:
		t.Fatal("STATS has no WAL section on a durable server")
	case st.WAL.Fsync != "group":
		t.Fatalf("WAL.Fsync = %q, want group", st.WAL.Fsync)
	case st.WAL.DataDir != dir:
		t.Fatalf("WAL.DataDir = %q, want %q", st.WAL.DataDir, dir)
	case st.WAL.AppendedRecords == 0 || st.WAL.AppendedBytes == 0:
		t.Fatalf("no appends recorded: %+v", st.WAL)
	case st.WAL.Fsyncs == 0:
		t.Fatalf("no fsyncs recorded under group policy: %+v", st.WAL)
	case st.WAL.BatchOpsHWM < 1:
		t.Fatalf("BatchOpsHWM = %d, want >= 1", st.WAL.BatchOpsHWM)
	case st.WAL.AppendFailures != 0:
		t.Fatalf("AppendFailures = %d on a healthy disk", st.WAL.AppendFailures)
	}

	want := dumpState(t, s)
	if want["k001"] != "cas-won" || want["k002"] != "v002" || want["m1"] != "multi-1" {
		t.Fatalf("pre-restart state wrong: %v", want)
	}
	if _, ok := want["k000"]; ok {
		t.Fatal("k000 still present after DEL")
	}
	s.Drain()

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Drain()
	if got := dumpState(t, s2); !maps.Equal(got, want) {
		t.Fatalf("recovered state differs:\n got %v\nwant %v", got, want)
	}
	if rec := s2.dur.mgr.Stats().RecoveredRecords; rec == 0 {
		t.Fatal("reopen recovered zero WAL records")
	}
}

// TestDurableConcurrentGroupCommit drives a durable server with enough
// pipelined concurrency that executors coalesce group commits, then verifies
// a graceful restart reproduces the exact final state. Runs coalesced
// units' lock and log steps, and the ack daemon, under the race detector.
func TestDurableConcurrentGroupCommit(t *testing.T) {
	leakCheck(t)
	fs := wal.NewMemFS()
	cfg := Config{Shards: 4, Executors: 2, DataDir: "wtfd-data", FS: fs, SegmentBytes: 4096}
	s := startServer(t, cfg)

	const workers, opsEach = 8, 60
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			cl := client.New(client.Options{Addr: s.Addr().String(), Conns: 1})
			defer cl.Close()
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("w%d-k%02d", w, i%10)
				if err := cl.Put(key, fmt.Sprintf("v%d-%d", w, i)); err != nil {
					errs <- fmt.Errorf("w%d put %d: %w", w, i, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	want := dumpState(t, s)
	if len(want) != workers*10 {
		t.Fatalf("pre-restart keys = %d, want %d", len(want), workers*10)
	}
	s.Drain()

	if got := recoverInto(t, Config{Shards: 4, DataDir: "wtfd-data"}, fs); !maps.Equal(got, want) {
		t.Fatalf("recovered state differs:\n got %v\nwant %v", got, want)
	}
}

// TestCrashRecoversAckedPrefix is the core acceptance property. A sequential
// client issues a deterministic op sequence against a MemFS-backed server
// armed with a fault countdown; after the first failed op the test clones
// the post-crash disk (kill -9: unsynced bytes gone, optionally a torn tail
// kept) and recovers into a fresh server. The recovered state must equal
// states[j] for some j >= acked — under group and always, no acknowledged
// write may be missing.
func TestCrashRecoversAckedPrefix(t *testing.T) {
	type op struct {
		del      bool
		key, val string
	}
	const nOps = 48
	ops := make([]op, nOps)
	for i := range ops {
		key := fmt.Sprintf("k%02d", i%13)
		if i%7 == 6 {
			ops[i] = op{del: true, key: key}
		} else {
			ops[i] = op{key: key, val: fmt.Sprintf("v%04d", i)}
		}
	}
	// states[j] is the store after the first j ops.
	states := make([]map[string]string, nOps+1)
	states[0] = map[string]string{}
	for i, o := range ops {
		st := maps.Clone(states[i])
		if o.del {
			delete(st, o.key)
		} else {
			st[o.key] = o.val
		}
		states[i+1] = st
	}

	for _, pol := range []wal.SyncPolicy{wal.SyncGroup, wal.SyncAlways} {
		for _, snapEvery := range []int64{-1, 8} {
			for _, keepTorn := range []int{0, 3} {
				for fault := 1; fault <= 40; fault += 3 {
					name := fmt.Sprintf("%s/snap%d/torn%d/fault%d", pol, snapEvery, keepTorn, fault)
					t.Run(name, func(t *testing.T) {
						fs := wal.NewMemFS()
						cfg := Config{
							Shards: 4, DataDir: "d", FS: fs, Fsync: pol,
							SegmentBytes: 512, SnapshotEvery: snapEvery,
						}
						s := startServer(t, cfg)
						cl := newClient(t, s, 1)
						// Arm after boot so the countdown measures serving-path
						// (and checkpoint) operations, not directory setup.
						fs.FailAfter(wal.FaultAllOps, fault)

						acked, issued := 0, 0
						for _, o := range ops {
							issued++
							var err error
							if o.del {
								_, err = cl.Del(o.key)
							} else {
								err = cl.Put(o.key, o.val)
							}
							if err != nil {
								break
							}
							acked++
						}

						// kill -9: snapshot the disk as a crash would leave it
						// while the old process is still live.
						clone := fs.CrashClone(keepTorn)
						got := recoverInto(t, Config{Shards: 4, DataDir: "d", Fsync: pol}, clone)

						j := -1
						for k := acked; k <= issued; k++ {
							if maps.Equal(got, states[k]) {
								j = k
								break
							}
						}
						if j < 0 {
							t.Fatalf("acked=%d issued=%d tripped=%v: recovered state matches no prefix >= acked:\n got %v\nwant at least %v",
								acked, issued, fs.Tripped(), got, states[acked])
						}
					})
				}
			}
		}
	}
}

// TestCrashMidMulti checks the ack contract for cross-shard MULTI batches: a
// batch is acknowledged only after every touched shard's record is durable,
// so every acked batch survives the crash whole. Unacked batches may be
// partially durable (the per-shard logs tear independently before the ack
// barrier), but any surviving write must carry the value that batch wrote.
func TestCrashMidMulti(t *testing.T) {
	const nMulti = 24
	for fault := 2; fault <= 40; fault += 5 {
		t.Run(fmt.Sprintf("fault%d", fault), func(t *testing.T) {
			fs := wal.NewMemFS()
			cfg := Config{Shards: 4, DataDir: "d", FS: fs, SegmentBytes: 512, SnapshotEvery: -1}
			s := startServer(t, cfg)
			cl := newClient(t, s, 1)
			fs.FailAfter(wal.FaultAllOps, fault)

			acked := 0
			for i := 0; i < nMulti; i++ {
				_, applied, err := cl.Multi([]wire.Cmd{
					wire.Put(fmt.Sprintf("m%02da", i), []byte(fmt.Sprintf("x%d", i))),
					wire.Put(fmt.Sprintf("m%02db", i), []byte(fmt.Sprintf("y%d", i))),
					wire.Put(fmt.Sprintf("m%02dc", i), []byte(fmt.Sprintf("z%d", i))),
				})
				if err != nil || !applied {
					break
				}
				acked++
			}

			clone := fs.CrashClone(2)
			got := recoverInto(t, Config{Shards: 4, DataDir: "d"}, clone)

			for i := 0; i < acked; i++ {
				for suffix, prefix := range map[string]string{"a": "x", "b": "y", "c": "z"} {
					key := fmt.Sprintf("m%02d%s", i, suffix)
					want := fmt.Sprintf("%s%d", prefix, i)
					if got[key] != want {
						t.Fatalf("acked batch %d lost %s: got %q want %q (acked=%d)", i, key, got[key], want, acked)
					}
				}
			}
			for key, val := range got {
				var i int
				var suffix byte
				if _, err := fmt.Sscanf(key, "m%02d", &i); err != nil || len(key) != 4 {
					t.Fatalf("unexpected recovered key %q", key)
				}
				suffix = key[3]
				want := map[byte]string{'a': "x", 'b': "y", 'c': "z"}[suffix] + fmt.Sprint(i)
				if val != want {
					t.Fatalf("recovered %q = %q, want %q", key, val, want)
				}
			}
		})
	}
}

// TestDrainFlushesWAL is the satellite-2 durability half of Drain: even
// under -fsync off, a graceful drain syncs every shard's final segment, so a
// power cut immediately after Drain loses nothing.
func TestDrainFlushesWAL(t *testing.T) {
	leakCheck(t)
	fs := wal.NewMemFS()
	cfg := Config{Shards: 4, DataDir: "d", FS: fs, Fsync: wal.SyncOff, SegmentBytes: 4096}
	s := startServer(t, cfg)
	cl := newClient(t, s, 1)

	want := make(map[string]string, 50)
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i)
		if err := cl.Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	cl.Close()
	s.Drain()

	// Power cut after the drain: only synced bytes survive.
	clone := fs.CrashClone(0)
	if got := recoverInto(t, Config{Shards: 4, DataDir: "d"}, clone); !maps.Equal(got, want) {
		t.Fatalf("Drain did not make the log durable:\n got %v\nwant %v", got, want)
	}
}
