package chaos

import (
	"strings"
	"testing"

	"wtftm/internal/persist"
	"wtftm/internal/wal"
)

func put(p, i int, key, val string, o Outcome) Op {
	return Op{Process: p, Index: i, Kind: "put", Access: []Access{{Key: key, Write: val}}, Outcome: o}
}

func get(p, i int, key, val string) Op {
	return Op{Process: p, Index: i, Kind: "get", Access: []Access{{Key: key, Reads: true, Read: val}}}
}

// cas reads read (the expectation, or the current value on a mismatch) and
// asks to write val.
func cas(p, i int, key, read, val string, o Outcome) Op {
	return Op{Process: p, Index: i, Kind: "cas", Access: []Access{{Key: key, Reads: o != Ambiguous, Read: read, Write: val}}, Outcome: o}
}

// record is one WAL record: its shard and the key/value pairs it puts.
type record struct {
	shard int
	kvs   []string // key, value, key, value, ...
}

// writeLog appends records to a fresh two-shard log, in order, the way the
// write pipeline does.
func writeLog(t *testing.T, recs ...record) *Log {
	t.Helper()
	log := &Log{FS: wal.NewMemFS(), Dir: "d", Shards: 2}
	nop := func(int, string, []byte) error { return nil }
	m, err := persist.Open(persist.Options{FS: log.FS, Dir: log.Dir, Shards: log.Shards, Sync: wal.SyncAlways,
		Source:  func(int, func(string, []byte) error) error { return nil },
		Restore: nop,
		Apply:   func(int, uint64, []byte) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		buf := wal.AppendBatchHeader(nil, len(r.kvs)/2)
		for i := 0; i < len(r.kvs); i += 2 {
			buf = wal.AppendPut(buf, r.kvs[i], []byte(r.kvs[i+1]))
		}
		m.Lock(r.shard)
		_, err := m.Append(r.shard, buf)
		m.Unlock(r.shard)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestCheckVerdicts runs the checker over small hand-made histories, each
// with the one contradiction (or none) that its name says.
func TestCheckVerdicts(t *testing.T) {
	transfer := Op{Process: 0, Index: 0, Kind: "multi", Outcome: Acked,
		Access: []Access{{Key: "a", Write: "a1"}, {Key: "b", Write: "b1"}}}
	for _, tc := range []struct {
		name  string
		ops   []Op
		log   func(t *testing.T) *Log
		crash bool
		want  string // a violation substring; "" = none
		adopt int64
	}{
		{name: "memory clean", ops: []Op{
			put(0, 0, "k", "1", Acked), put(0, 1, "k", "2", Acked), get(0, 2, "k", "2"),
			get(1, 0, "k", "1"), get(1, 1, "k", "2"), get(1, 2, "j", ""),
		}},
		{name: "memory lost acked write", ops: []Op{
			put(0, 0, "k", "1", Acked), put(0, 1, "k", "2", Acked), get(0, 2, "k", "1"),
		}, want: "no serialization"},
		{name: "memory non-monotonic read", ops: []Op{
			put(0, 0, "k", "1", Acked), put(0, 1, "k", "2", Acked),
			get(1, 0, "k", "2"), get(1, 1, "k", "1"),
		}, want: "no serialization"},
		{name: "memory phantom", ops: []Op{
			put(0, 0, "k", "1", Acked), get(1, 0, "k", "9"),
		}, want: "no committed write installed"},
		{name: "memory ambiguous write seen", ops: []Op{
			put(0, 0, "k", "1", Ambiguous), put(0, 1, "k", "2", Acked), get(1, 0, "k", "1"), get(1, 1, "k", "2"),
		}},
		{name: "memory ambiguous orders nothing after it", ops: []Op{
			put(0, 0, "k", "1", Ambiguous), get(0, 1, "k", ""),
		}},
		{name: "memory duplicated CAS", ops: []Op{
			cas(0, 0, "c", "", "x", Acked), cas(0, 1, "c", "y", "y", Mismatch),
		}, want: "duplicated effect"},

		{name: "log clean", ops: []Op{
			transfer, put(1, 0, "a", "a2", Acked), get(2, 0, "b", "b1"), get(2, 1, "a", "a2"),
		}, log: func(t *testing.T) *Log {
			return writeLog(t, record{0, []string{"a", "a1"}}, record{1, []string{"b", "b1"}}, record{0, []string{"a", "a2"}})
		}},
		{name: "log coalesced unit", ops: []Op{
			put(0, 0, "a", "a1", Acked), put(1, 0, "b", "b1", Acked), get(2, 0, "a", "a1"),
		}, log: func(t *testing.T) *Log {
			return writeLog(t, record{0, []string{"a", "a1", "b", "b1"}})
		}},
		{name: "log lost acked write", ops: []Op{
			put(0, 0, "a", "a1", Acked), put(0, 1, "a", "a2", Acked),
		}, log: func(t *testing.T) *Log {
			return writeLog(t, record{0, []string{"a", "a1"}})
		}, want: "lost acked write"},
		{name: "log invented value", ops: []Op{put(0, 0, "a", "a1", Acked)},
			log: func(t *testing.T) *Log {
				return writeLog(t, record{0, []string{"a", "a1"}}, record{1, []string{"b", "zz"}})
			}, want: "which no client wrote"},
		{name: "log applied twice", ops: []Op{put(0, 0, "a", "a1", Acked)},
			log: func(t *testing.T) *Log {
				return writeLog(t, record{0, []string{"a", "a1"}}, record{0, []string{"a", "a1"}})
			}, want: "logged twice"},
		{name: "log applied twice across a crash", ops: []Op{put(0, 0, "a", "a1", Acked)},
			log: func(t *testing.T) *Log {
				return writeLog(t, record{0, []string{"a", "a1"}}, record{0, []string{"a", "a1"}})
			}, crash: true, adopt: 1},
		{name: "log duplicated CAS", ops: []Op{cas(0, 0, "a", "a1", "a1", Mismatch)},
			log: func(t *testing.T) *Log {
				return writeLog(t, record{0, []string{"a", "a1"}})
			}, want: "duplicated effect"},
		{name: "log duplicated CAS across a crash", ops: []Op{cas(0, 0, "a", "a1", "a1", Mismatch), get(0, 1, "a", "a1")},
			log: func(t *testing.T) *Log {
				return writeLog(t, record{0, []string{"a", "a1"}})
			}, crash: true, adopt: 1},
		{name: "log order is not commit order", ops: []Op{
			transfer, get(1, 0, "a", "a1"), cas(1, 1, "a", "a1", "a2", Acked),
		}, log: func(t *testing.T) *Log {
			return writeLog(t, record{0, []string{"a", "a2"}}, record{0, []string{"a", "a1"}}, record{1, []string{"b", "b1"}})
		}, want: "no serialization"},
		{name: "log unlogged read", ops: []Op{put(0, 0, "a", "a1", Ambiguous), get(1, 0, "a", "a1")},
			log: func(t *testing.T) *Log { return writeLog(t) }, want: "no committed write installed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log *Log
			if tc.log != nil {
				log = tc.log(t)
			}
			v, err := Check(tc.ops, log, tc.crash)
			if err != nil {
				t.Fatal(err)
			}
			if v.CrashAdopted != tc.adopt {
				t.Errorf("CrashAdopted = %d, want %d", v.CrashAdopted, tc.adopt)
			}
			switch {
			case tc.want == "" && len(v.Violations) > 0:
				t.Fatalf("violations on a consistent history: %v", v.Violations)
			case tc.want != "" && !strings.Contains(strings.Join(v.Violations, "\n"), tc.want):
				t.Fatalf("violations = %v, want one containing %q", v.Violations, tc.want)
			}
		})
	}
}

// TestCheckRejectsUnjudgeable pins the histories Check refuses rather than
// judges.
func TestCheckRejectsUnjudgeable(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []Op
		want string
	}{
		{"value written twice", []Op{put(0, 0, "k", "1", Acked), put(1, 0, "k", "1", Acked)}, "unique per key"},
		{"index reused", []Op{put(0, 0, "k", "1", Acked), get(0, 0, "k", "1")}, "numbered p0.0"},
		{"two writers without a log", []Op{put(0, 0, "k", "1", Acked), put(1, 0, "k", "2", Acked)}, "single-writer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Check(tc.ops, nil, false); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
