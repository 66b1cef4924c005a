package server

import (
	"fmt"
	"maps"
	"testing"

	"wtftm/internal/wal"
	"wtftm/internal/wire"
)

// lane drives one executor's pipeline without a socket: decoded requests run
// as one unit exactly as dequeued tasks would — stage accounting, commit,
// barrier, hand-off — and the responses come back on the stub connection's
// writer queue instead of going to a write loop. The server need not be
// listening; its own executors stay idle.
type lane struct {
	ex *executor
	c  *conn
}

func newLane(s *Server) *lane {
	// The writer queue must hold a whole unit: inline acks are sent by the
	// goroutine that then reads them.
	return &lane{ex: newExecutor(s, 0), c: &conn{srv: s, out: make(chan *wire.Response, groupLimit)}}
}

// submit runs reqs (which the pipeline recycles) as one unit. The caller
// takes len(reqs) responses from l.c.out, in whatever order the acks arrive.
func (l *lane) submit(reqs ...*wire.Request) {
	for _, req := range reqs {
		l.c.pending.Add(1)
		l.c.srv.inflight.Add(1)
		l.ex.group = append(l.ex.group, task{c: l.c, req: req, wshard: wshardNone})
	}
	l.ex.flush()
}

// execute runs one request as a unit of one and returns its response.
func (l *lane) execute(req *wire.Request) *wire.Response {
	l.submit(req)
	return <-l.c.out
}

// pooled round-trips a request through the wire codec into a pooled Request,
// the form the read loop hands to an executor.
func pooled(t testing.TB, req *wire.Request) *wire.Request {
	t.Helper()
	payload, err := wire.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	out := wire.AcquireRequest()
	if err := wire.DecodeRequestInto(out, payload); err != nil {
		t.Fatal(err)
	}
	return out
}

// outcome is a command result in comparable form.
type outcome struct {
	status wire.Status
	val    string
	hasVal bool
}

func outcomeOf(r wire.Result) outcome {
	return outcome{r.Status, string(r.Val), r.HasVal}
}

// modelApply is the reference semantics of one store command over a plain
// map — what store.apply must compute inside any transaction body.
func modelApply(st map[string]string, c *wire.Cmd) outcome {
	cur, ok := st[c.Key]
	switch c.Op {
	case wire.OpGet:
		if !ok {
			return outcome{status: wire.StatusNotFound}
		}
		return outcome{wire.StatusOK, cur, true}
	case wire.OpPut:
		st[c.Key] = string(c.Val)
	case wire.OpDel:
		if !ok {
			return outcome{status: wire.StatusNotFound}
		}
		delete(st, c.Key)
	case wire.OpCAS:
		if c.ExpectPresent != ok || (ok && cur != string(c.Expect)) {
			return outcome{wire.StatusCASMismatch, cur, ok}
		}
		st[c.Key] = string(c.Val)
	}
	return outcome{status: wire.StatusOK}
}

// equivScript is a seeded command script over a small keyspace, cut into
// chunks (the coalesced groups and the MULTI batches of the replays below).
// CAS expectations are drawn against a sequential run of the model, so the
// script holds matching and mismatching CASes, hits and misses.
func equivScript(seed uint64, chunks, chunkLen int) [][]wire.Cmd {
	next := func() uint64 { // splitmix64
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	st := map[string]string{}
	script := make([][]wire.Cmd, chunks)
	for ci := range script {
		for j := 0; j < chunkLen; j++ {
			key := fmt.Sprintf("eq-%02d", next()%24)
			val := []byte(fmt.Sprintf("v%d.%d", ci, j))
			var c wire.Cmd
			switch r := next() % 100; {
			case r < 30:
				c = wire.Put(key, val)
			case r < 55:
				c = wire.Get(key)
			case r < 70:
				c = wire.Del(key)
			case r < 94: // a CAS whose expectation holds in a sequential run
				if cur, ok := st[key]; ok {
					c = wire.CAS(key, []byte(cur), val)
				} else {
					c = wire.CAS(key, nil, val)
				}
			default: // a CAS that cannot match
				c = wire.CAS(key, []byte("never-written"), val)
			}
			modelApply(st, &c)
			script[ci] = append(script[ci], c)
		}
	}
	return script
}

// TestPipelineEquivalence replays one seeded script through the write
// pipeline in its three unit shapes — every command a unit of one, each
// chunk a coalesced unit, each chunk a MULTI — on a memory-only server and
// on a durable one under every sync policy, and holds each replay to the
// model: identical per-command results and an identical final store, except
// that a MULTI holding a mismatched CAS commits none of its writes (the
// documented all-or-nothing rule; the model discards that batch's copy of
// the state). Durable rows must then recover that store from the WAL, and
// a dedup-enveloped resend of a committed write must be answered from the
// table without reaching the log.
func TestPipelineEquivalence(t *testing.T) {
	const chunkLen = 6
	script := equivScript(42, 40, chunkLen)

	// Sequential semantics: solo and coalesced replays.
	seqStore := map[string]string{}
	var seqWant []outcome
	// All-or-nothing semantics: the MULTI replay.
	multiStore := map[string]string{}
	var multiWant []outcome
	aborted := 0
	for _, chunk := range script {
		attempt := maps.Clone(multiStore)
		ok := true
		for i := range chunk {
			seqWant = append(seqWant, modelApply(seqStore, &chunk[i]))
			o := modelApply(attempt, &chunk[i])
			multiWant = append(multiWant, o)
			ok = ok && o.status != wire.StatusCASMismatch
		}
		if ok {
			multiStore = attempt
		} else {
			aborted++
		}
	}
	if aborted == 0 || aborted == len(script) || maps.Equal(seqStore, multiStore) {
		t.Fatalf("script does not separate the semantics: %d of %d batches abort", aborted, len(script))
	}

	type shape struct {
		name      string
		wantRes   []outcome
		wantStore map[string]string
		// replay sends one chunk and returns its per-command outcomes.
		replay func(t *testing.T, l *lane, chunk []wire.Cmd) []outcome
	}
	collect := func(l *lane, n int) []outcome {
		out := make([]outcome, n)
		for i := 0; i < n; i++ {
			resp := <-l.c.out // deferred write acks arrive after the reads
			out[resp.ID] = outcomeOf(resp.Result)
			wire.ReleaseResponse(resp)
		}
		return out
	}
	shapes := []shape{
		{"solo", seqWant, seqStore, func(t *testing.T, l *lane, chunk []wire.Cmd) []outcome {
			var out []outcome
			for i := range chunk {
				l.submit(pooled(t, &wire.Request{Op: chunk[i].Op, Cmd: chunk[i]}))
				out = append(out, collect(l, 1)...)
			}
			return out
		}},
		{"coalesced", seqWant, seqStore, func(t *testing.T, l *lane, chunk []wire.Cmd) []outcome {
			reqs := make([]*wire.Request, len(chunk))
			for i := range chunk {
				reqs[i] = pooled(t, &wire.Request{ID: uint32(i), Op: chunk[i].Op, Cmd: chunk[i]})
			}
			l.submit(reqs...)
			return collect(l, len(chunk))
		}},
		{"multi", multiWant, multiStore, func(t *testing.T, l *lane, chunk []wire.Cmd) []outcome {
			resp := l.execute(pooled(t, &wire.Request{Op: wire.OpMulti, Batch: chunk}))
			defer wire.ReleaseResponse(resp)
			if len(resp.Batch) != len(chunk) {
				t.Fatalf("MULTI answered %d results for %d commands (%+v)", len(resp.Batch), len(chunk), resp.Result)
			}
			out := make([]outcome, len(chunk))
			mismatch := false
			for i := range resp.Batch {
				out[i] = outcomeOf(resp.Batch[i])
				mismatch = mismatch || out[i].status == wire.StatusCASMismatch
			}
			want := wire.StatusOK
			if mismatch {
				want = wire.StatusCASMismatch
			}
			if resp.Result.Status != want {
				t.Fatalf("MULTI status = %v, want %v", resp.Result.Status, want)
			}
			return out
		}},
	}

	type row struct {
		name    string
		durable bool
		pol     wal.SyncPolicy
	}
	rows := []row{{name: "memory"}, {"group", true, wal.SyncGroup}, {"always", true, wal.SyncAlways}, {"off", true, wal.SyncOff}}
	for _, r := range rows {
		for _, sh := range shapes {
			t.Run(r.name+"/"+sh.name, func(t *testing.T) {
				leakCheck(t)
				cfg := Config{Shards: 4}
				fs := wal.NewMemFS()
				if r.durable {
					cfg.DataDir, cfg.FS, cfg.Fsync = "d", fs, r.pol
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Drain()
				l := newLane(s)

				var got []outcome
				for _, chunk := range script {
					got = append(got, sh.replay(t, l, chunk)...)
				}
				for i := range got {
					if got[i] != sh.wantRes[i] {
						t.Fatalf("command %d (%+v): got %+v, want %+v", i, script[i/chunkLen][i%chunkLen], got[i], sh.wantRes[i])
					}
				}
				if st := dumpState(t, s); !maps.Equal(st, sh.wantStore) {
					t.Fatalf("final store differs:\n got %v\nwant %v", st, sh.wantStore)
				}

				// Exactly-once across the barrier: the original commits, logs
				// and settles before its outcome is stored; the resend is
				// answered from the table — a second application of this
				// expect-absent CAS would mismatch — and logs nothing.
				cas := &wire.Request{Op: wire.OpCAS, Cmd: wire.CAS("eq-once", nil, []byte("1")), Dedup: true, ClientID: 9, Seq: 1}
				for attempt := 0; attempt < 2; attempt++ {
					var records int64
					if r.durable {
						records = s.dur.mgr.Stats().AppendedRecords
					}
					resp := l.execute(pooled(t, cas))
					if resp.Result.Status != wire.StatusOK {
						t.Fatalf("dedup'd CAS, attempt %d: %+v", attempt, resp.Result)
					}
					wire.ReleaseResponse(resp)
					if hits := s.dedupHits.Load(); hits != int64(attempt) {
						t.Fatalf("dedupHits = %d after attempt %d", hits, attempt)
					}
					if r.durable {
						if n := s.dur.mgr.Stats().AppendedRecords - records; n != int64(1-attempt) {
							t.Fatalf("attempt %d appended %d WAL records, want %d", attempt, n, 1-attempt)
						}
					}
				}

				if !r.durable {
					return
				}
				want := dumpState(t, s)
				rcfg := Config{Shards: 4, DataDir: "d", Fsync: r.pol}
				if r.pol != wal.SyncOff {
					// Every write above was acked, so a power cut right now
					// must lose none of them.
					if rec := recoverInto(t, rcfg, fs.CrashClone(0)); !maps.Equal(rec, want) {
						t.Fatalf("crash recovery differs:\n got %v\nwant %v", rec, want)
					}
				}
				s.Drain()
				if rec := recoverInto(t, rcfg, fs.CrashClone(0)); !maps.Equal(rec, want) {
					t.Fatalf("recovery after drain differs:\n got %v\nwant %v", rec, want)
				}
			})
		}
	}
}

// TestUnitPinsNothingAfterCommit: an executor reuses one unit for its whole
// life, so whatever a commit leaves in it stays reachable until that
// executor's next commit of the same shape — on an idle server, forever. A
// future handle is the expensive case: it pins its transaction, the
// versions that transaction read and the values it wrote (the 2 MB of
// preload state that mixed-durable once carried through its whole run).
func TestUnitPinsNothingAfterCommit(t *testing.T) {
	s, err := New(Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	l := newLane(s)
	var batch []wire.Cmd
	for i := 0; i < 16; i++ { // 16 keys over 4 shards: a real fan-out
		batch = append(batch, wire.Put(fmt.Sprintf("pin-%02d", i), []byte("v")), wire.Get(fmt.Sprintf("pin-%02d", i)))
	}
	resp := l.execute(pooled(t, &wire.Request{Op: wire.OpMulti, Batch: batch}))
	if resp.Result.Status != wire.StatusOK || len(resp.Batch) != len(batch) {
		t.Fatalf("MULTI: %+v", resp.Result)
	}
	wire.ReleaseResponse(resp)
	if s.futureFanouts.Load() == 0 {
		t.Fatal("the batch did not fan out")
	}
	u := l.ex.unit
	for i, f := range u.futs[:cap(u.futs)] {
		if f != nil {
			t.Fatalf("unit still holds future handle %d", i)
		}
	}
	for i, c := range u.cmds[:cap(u.cmds)] {
		if c != nil {
			t.Fatalf("unit still points into request command %d", i)
		}
	}
	for i, r := range u.res[:cap(u.res)] {
		if r.Val != nil {
			t.Fatalf("unit still holds result value %d", i)
		}
	}
}
