package server

// The ack rule under -fsync group (DESIGN.md §10): the ack daemon is the
// only code that waits on the log barrier. A gated fsync holds a durable
// write between its commit and its barrier for as long as a test needs, so
// these tests can look at what is answered meanwhile.

import (
	"bufio"
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wtftm/internal/wal"
	"wtftm/internal/wire"
)

// gatedFS is a MemFS whose file fsyncs wait while the gate is shut.
type gatedFS struct {
	*wal.MemFS
	shut     atomic.Bool
	held     chan struct{} // signalled when an fsync finds the gate shut
	release  chan struct{} // closed to let the held fsyncs through
	openOnce sync.Once
}

func (g *gatedFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := g.MemFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

// open lets every held and later fsync through.
func (g *gatedFS) open() {
	g.openOnce.Do(func() {
		g.shut.Store(false)
		close(g.release)
	})
}

// waitHeld returns once an fsync is waiting at the shut gate.
func (g *gatedFS) waitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-g.held:
	case <-time.After(10 * time.Second):
		t.Fatal("no fsync reached the gate")
	}
}

type gatedFile struct {
	wal.File
	g *gatedFS
}

func (f gatedFile) Sync() error {
	if f.g.shut.Load() {
		select {
		case f.g.held <- struct{}{}:
		default:
		}
		<-f.g.release
	}
	return f.File.Sync()
}

// startGated starts a durable group-commit server whose log fsyncs wait at
// a shut gate. The gate opens at cleanup before the server drains, so a
// failed test cannot leave the ack daemon stuck in an fsync.
func startGated(t *testing.T) (*Server, *gatedFS) {
	t.Helper()
	gate := &gatedFS{MemFS: wal.NewMemFS(), held: make(chan struct{}, 1), release: make(chan struct{})}
	s := startServer(t, Config{Shards: 4, Executors: 2, DataDir: "d", FS: gate, Fsync: wal.SyncGroup})
	t.Cleanup(gate.open)
	gate.shut.Store(true)
	return s, gate
}

// responses decodes br's response frames onto a channel until the
// connection closes, so a test can wait for an answer with a deadline.
func responses(br *bufio.Reader) <-chan wire.Response {
	ch := make(chan wire.Response, 4)
	go func() {
		defer close(ch)
		for {
			payload, err := wire.ReadFrame(br, nil)
			if err != nil {
				return
			}
			resp, err := wire.DecodeResponse(payload)
			if err != nil {
				return
			}
			ch <- resp
		}
	}()
	return ch
}

// TestAckRuleMultiDoesNotHoldExecutor: a durable MULTI waits for its
// barrier in the ack daemon, not on its executor. While the MULTI's fsync
// is held, a GET its connection sends next — which the session watermark
// routes to that executor — is answered.
func TestAckRuleMultiDoesNotHoldExecutor(t *testing.T) {
	leakCheck(t)
	s, gate := startGated(t)
	nc, br := rawDial(t, s)
	got := responses(br)

	batch := []wire.Cmd{wire.Put("m-a", []byte("1")), wire.Put("m-b", []byte("2"))}
	rawSend(t, nc, &wire.Request{ID: 1, Op: wire.OpMulti, Batch: batch})
	gate.waitHeld(t)

	// A key the MULTI does not write, on the MULTI's executor.
	ex := s.executorFor(&wire.Request{Op: wire.OpMulti, Batch: batch})
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("g%d", i); s.executorFor(&wire.Request{Op: wire.OpGet, Cmd: wire.Get(k)}) == ex {
			key = k
		}
	}
	rawSend(t, nc, &wire.Request{ID: 2, Op: wire.OpGet, Cmd: wire.Get(key)})
	select {
	case resp := <-got:
		if resp.ID != 2 || resp.Result.Status != wire.StatusNotFound {
			t.Fatalf("first answer with the MULTI's fsync held: %+v, want the GET's NOT_FOUND", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the GET was not answered while the MULTI's fsync was held: the executor waits on the barrier")
	}

	gate.open()
	if resp := <-got; resp.ID != 1 || resp.Result.Status != wire.StatusOK {
		t.Fatalf("MULTI after the gate opened: %+v", resp)
	}
}

// TestAckRuleReplayWaitsForBarrier: an exactly-once resend is answered from
// the table only after a barrier that covers its original's record. The
// original's outcome is stored at commit, so with the original's fsync held
// the resend, on a second connection, is replayed but not answered; once
// the gate opens it is, with no new WAL record.
func TestAckRuleReplayWaitsForBarrier(t *testing.T) {
	if report := replayBeforeBarrier(t); report != "" {
		t.Fatal(report)
	}
}

// replayBeforeBarrier runs TestAckRuleReplayWaitsForBarrier's scenario and
// returns a report if the resend is answered before the gate opens; any
// other failure fails t.
func replayBeforeBarrier(t *testing.T) string {
	t.Helper()
	leakCheck(t)
	s, gate := startGated(t)
	put := &wire.Request{ID: 1, Op: wire.OpPut, Cmd: wire.Put("once", []byte("1")),
		Dedup: true, ClientID: 7, Seq: 1}
	nc1, br1 := rawDial(t, s)
	rawSend(t, nc1, put)
	gate.waitHeld(t)
	records := s.dur.mgr.Stats().AppendedRecords

	nc2, br2 := rawDial(t, s)
	got := responses(br2)
	put.ID = 2
	rawSend(t, nc2, put)
	for deadline := time.Now().Add(10 * time.Second); s.dedupHits.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the resend was not replayed while the original's fsync was held")
		}
	}
	select {
	case resp := <-got:
		return fmt.Sprintf("the resend was answered %v before the original's fsync completed", resp.Result.Status)
	case <-time.After(250 * time.Millisecond):
	}

	gate.open()
	if resp := <-got; resp.ID != 2 || resp.Result.Status != wire.StatusOK {
		t.Fatalf("resend after the gate opened: %+v", resp)
	}
	if resp := rawRecv(t, br1); resp.ID != 1 || resp.Result.Status != wire.StatusOK {
		t.Fatalf("original: %+v", resp)
	}
	if n := s.dur.mgr.Stats().AppendedRecords - records; n != 0 {
		t.Fatalf("the resend appended %d WAL records, want 0", n)
	}
	if hits := s.dedupHits.Load(); hits != 1 {
		t.Fatalf("dedupHits = %d, want 1", hits)
	}
	return ""
}

// TestAckRuleLoneWriteSkipsWindow: a durable write with nothing else in
// flight is fsynced at once, not after the commit-delay window — nothing can
// join its cycle. While the daemon waits the window, no ack can come back
// sooner than commitDelay, so the fastest of a lone writer's round trips
// shows which one it did.
func TestAckRuleLoneWriteSkipsWindow(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 4, DataDir: "d", FS: wal.NewMemFS(), Fsync: wal.SyncGroup})
	cl := newClient(t, s, 1)
	fastest := time.Hour
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := cl.Put(fmt.Sprintf("lone-%d", i), "v"); err != nil {
			t.Fatal(err)
		}
		fastest = min(fastest, time.Since(start))
	}
	if fastest >= commitDelay {
		t.Fatalf("fastest lone durable PUT took %v: the ack daemon waited the %v window with nothing else in flight", fastest, commitDelay)
	}
}
