package server

import (
	"bufio"
	"net"
	"testing"
	"time"

	"wtftm/internal/wire"
)

// rawDial opens a bare protocol connection to s (no client-layer help), for
// tests that need to control frames and envelopes exactly.
func rawDial(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, bufio.NewReader(nc)
}

func rawSend(t *testing.T, nc net.Conn, req *wire.Request) {
	t.Helper()
	payload, err := wire.AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	if err := wire.WriteFrame(nc, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
}

func rawRecv(t *testing.T, br *bufio.Reader) wire.Response {
	t.Helper()
	payload, err := wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	return resp
}

func rawRoundTrip(t *testing.T, nc net.Conn, br *bufio.Reader, req *wire.Request) wire.Response {
	t.Helper()
	rawSend(t, nc, req)
	return rawRecv(t, br)
}

// TestOverloadShedding holds one admitted request in flight with the server
// at MaxInFlight 1 and asserts that further store requests are refused with
// StatusBusy from the read loop (no queueing, connection stays open) while
// the stuck request still completes normally once released.
func TestOverloadShedding(t *testing.T) {
	leakCheck(t)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s := startServer(t, Config{
		Shards:      2,
		MaxInFlight: 1,
		execHook: func(req *wire.Request) {
			if req.Op == wire.OpPut && req.Cmd.Key == "hold" {
				entered <- struct{}{}
				<-release
			}
		},
	})

	nc1, br1 := rawDial(t, s)
	rawSend(t, nc1, &wire.Request{ID: 1, Op: wire.OpPut, Cmd: wire.Put("hold", []byte("x"))})
	<-entered // the one admitted request is now stuck in execution

	// Every further store request must be shed — and the connection must
	// survive the refusal (three in a row on one conn).
	nc2, br2 := rawDial(t, s)
	for i, req := range []*wire.Request{
		{ID: 10, Op: wire.OpPut, Cmd: wire.Put("other", []byte("y"))},
		{ID: 11, Op: wire.OpGet, Cmd: wire.Get("other")},
		{ID: 12, Op: wire.OpMulti, Batch: []wire.Cmd{wire.Put("a", []byte("1"))}},
	} {
		resp := rawRoundTrip(t, nc2, br2, req)
		if resp.ID != req.ID || resp.Result.Status != wire.StatusBusy {
			t.Fatalf("shed %d: got ID=%d status=%v, want ID=%d BUSY", i, resp.ID, resp.Result.Status, req.ID)
		}
	}

	close(release)
	if resp := rawRecv(t, br1); resp.ID != 1 || resp.Result.Status != wire.StatusOK {
		t.Fatalf("held PUT: got %+v, want OK", resp)
	}

	// The in-flight count drained, so admission works again and STATS (always
	// admitted) reports the sheds.
	resp := rawRoundTrip(t, nc2, br2, &wire.Request{ID: 20, Op: wire.OpStats})
	if resp.Result.Status != wire.StatusOK {
		t.Fatalf("STATS after release: %+v", resp)
	}
	if got := s.shed.Load(); got < 3 {
		t.Fatalf("shed counter = %d, want >= 3", got)
	}
	// A request retires (conn.done decrements inflight) after its response
	// is handed off, so the client can read the held PUT's reply and the
	// STATS reply before the count drops: wait for it, with a deadline.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight after quiesce = %d, want 0", s.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleReaping: a connection that goes silent past IdleTimeout is closed
// by the server and counted, without disturbing an active connection.
func TestIdleReaping(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 2, IdleTimeout: 80 * time.Millisecond})

	idle, idleBR := rawDial(t, s)
	// Prove the connection works, then go silent.
	if resp := rawRoundTrip(t, idle, idleBR, &wire.Request{ID: 1, Op: wire.OpPing}); resp.Result.Status != wire.StatusOK {
		t.Fatalf("ping: %+v", resp)
	}

	// The server must close the silent connection: our read unblocks.
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idleBR.ReadByte(); err == nil {
		t.Fatalf("idle connection still open: read returned data")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.idleReaped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idleReaped still 0 after reap")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh connection serves normally after the reap.
	nc, br := rawDial(t, s)
	if resp := rawRoundTrip(t, nc, br, &wire.Request{ID: 2, Op: wire.OpPing}); resp.Result.Status != wire.StatusOK {
		t.Fatalf("ping after reap: %+v", resp)
	}
}

// TestDedupExactlyOnce: a dedup-enveloped write resent under the same
// (clientID, seq) is answered from the table — same response, no second
// application — which is exactly what makes CAS retries safe.
func TestDedupExactlyOnce(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 4})
	nc, br := rawDial(t, s)

	cas := &wire.Request{ID: 1, Op: wire.OpCAS, Cmd: wire.CAS("k", nil, []byte("v1")),
		Dedup: true, ClientID: 7, Seq: 1}
	if resp := rawRoundTrip(t, nc, br, cas); resp.Result.Status != wire.StatusOK {
		t.Fatalf("first CAS: %+v", resp)
	}
	// The resend must NOT re-execute: a blind re-run of an expect-absent CAS
	// against its own effect would report CASMismatch (the duplicated-effect
	// signature the chaos oracle hunts).
	cas.ID = 2
	if resp := rawRoundTrip(t, nc, br, cas); resp.ID != 2 || resp.Result.Status != wire.StatusOK {
		t.Fatalf("resent CAS: got %+v, want cached OK", resp)
	}
	if got := s.dedupHits.Load(); got != 1 {
		t.Fatalf("dedupHits = %d, want 1", got)
	}
	if resp := rawRoundTrip(t, nc, br, &wire.Request{ID: 3, Op: wire.OpGet, Cmd: wire.Get("k")}); string(resp.Result.Val) != "v1" {
		t.Fatalf("Get(k) after dedup resend = %+v, want v1", resp)
	}

	// MULTI: the cached response carries the per-command batch results too.
	multi := &wire.Request{ID: 4, Op: wire.OpMulti,
		Batch: []wire.Cmd{wire.Put("a", []byte("1")), wire.CAS("b", nil, []byte("2"))},
		Dedup: true, ClientID: 7, Seq: 2}
	first := rawRoundTrip(t, nc, br, multi)
	if first.Result.Status != wire.StatusOK || len(first.Batch) != 2 {
		t.Fatalf("first MULTI: %+v", first)
	}
	multi.ID = 5
	again := rawRoundTrip(t, nc, br, multi)
	if again.ID != 5 || again.Result.Status != wire.StatusOK || len(again.Batch) != 2 {
		t.Fatalf("resent MULTI: got %+v, want cached OK with 2 results", again)
	}
	for i := range again.Batch {
		if again.Batch[i].Status != first.Batch[i].Status {
			t.Fatalf("resent MULTI batch[%d] = %v, want %v", i, again.Batch[i].Status, first.Batch[i].Status)
		}
	}
	if got := s.dedupHits.Load(); got != 2 {
		t.Fatalf("dedupHits = %d, want 2", got)
	}

	// A new sequence number executes normally (no false hit).
	put := &wire.Request{ID: 6, Op: wire.OpPut, Cmd: wire.Put("k", []byte("v2")),
		Dedup: true, ClientID: 7, Seq: 3}
	if resp := rawRoundTrip(t, nc, br, put); resp.Result.Status != wire.StatusOK {
		t.Fatalf("new-seq PUT: %+v", resp)
	}
	if resp := rawRoundTrip(t, nc, br, &wire.Request{ID: 7, Op: wire.OpGet, Cmd: wire.Get("k")}); string(resp.Result.Val) != "v2" {
		t.Fatalf("Get(k) after new-seq PUT = %+v, want v2", resp)
	}
	if got := s.dedupHits.Load(); got != 2 {
		t.Fatalf("dedupHits after new seq = %d, want 2", got)
	}
}

// TestDedupTableBounds exercises the table's eviction policy directly: FIFO
// per client past maxDedupSeqs, LRU across clients past maxDedupClients, and
// no memory of unsettled outcomes.
func TestDedupTableBounds(t *testing.T) {
	var tab dedupTable
	mk := func(st wire.Status) *wire.Response {
		return &wire.Response{Op: wire.OpPut, Result: wire.Result{Status: st}}
	}

	// Unsettled outcomes are not remembered.
	tab.store(1, 1, mk(wire.StatusErr))
	tab.store(1, 2, mk(wire.StatusBusy))
	tab.store(1, 3, mk(wire.StatusUnavailable))
	var resp wire.Response
	for seq := uint64(1); seq <= 3; seq++ {
		if tab.lookup(1, seq, &resp) {
			t.Fatalf("unsettled outcome seq %d was remembered", seq)
		}
	}

	// Per-client FIFO: after maxDedupSeqs+1 settled outcomes, seq 0 is gone
	// and the newest maxDedupSeqs remain.
	for seq := uint64(0); seq <= maxDedupSeqs; seq++ {
		tab.store(1, seq, mk(wire.StatusOK))
	}
	if tab.lookup(1, 0, &resp) {
		t.Fatalf("oldest seq survived FIFO eviction")
	}
	if !tab.lookup(1, 1, &resp) || !tab.lookup(1, maxDedupSeqs, &resp) {
		t.Fatalf("recent seqs evicted")
	}

	// Cross-client LRU: fill the table, then add one more client; the least
	// recently used identity (client 2, untouched since its store) goes.
	for id := uint64(2); id <= maxDedupClients; id++ {
		tab.store(id, 1, mk(wire.StatusOK))
	}
	// Touch every identity except client 2, which becomes the LRU victim.
	if !tab.lookup(1, maxDedupSeqs, &resp) {
		t.Fatalf("client 1 missing before eviction")
	}
	for id := uint64(3); id <= maxDedupClients; id++ {
		if !tab.lookup(id, 1, &resp) {
			t.Fatalf("client %d missing before eviction", id)
		}
	}
	tab.store(maxDedupClients+1, 1, mk(wire.StatusOK))
	if tab.lookup(2, 1, &resp) {
		t.Fatalf("LRU client survived eviction")
	}
	if !tab.lookup(maxDedupClients+1, 1, &resp) {
		t.Fatalf("new client missing after eviction")
	}
}
