package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"testing"

	"wtftm/internal/wire"
)

// rawConn is a minimal protocol client for goroutines that cannot use the
// testing-helper dialers.
type rawConn struct {
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(s *Server) (*rawConn, error) {
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		return nil, err
	}
	return &rawConn{nc: nc, br: bufio.NewReader(nc)}, nil
}

func (r *rawConn) roundTrip(req *wire.Request) (wire.Response, error) {
	payload, err := wire.AppendRequest(nil, req)
	if err != nil {
		return wire.Response{}, err
	}
	if err := wire.WriteFrame(r.nc, payload); err != nil {
		return wire.Response{}, err
	}
	fr, err := wire.ReadFrame(r.br, nil)
	if err != nil {
		return wire.Response{}, err
	}
	return wire.DecodeResponse(fr)
}

// fetchStats round-trips a STATS request and decodes the reply.
func fetchStats(t *testing.T, s *Server) wire.StatsReply {
	t.Helper()
	nc, br := rawDial(t, s)
	resp := rawRoundTrip(t, nc, br, &wire.Request{ID: 999, Op: wire.OpStats})
	if resp.Result.Status != wire.StatusOK {
		t.Fatalf("STATS status = %v", resp.Result.Status)
	}
	var reply wire.StatsReply
	if err := json.Unmarshal(resp.Result.Val, &reply); err != nil {
		t.Fatalf("STATS decode: %v", err)
	}
	return reply
}

// TestFastReadServes pins the basic contract: on a default server GETs are
// served from the read loop (STATS counts them), hits carry the committed
// value, misses report NOT_FOUND.
func TestFastReadServes(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 4})
	nc, br := rawDial(t, s)

	if resp := rawRoundTrip(t, nc, br, &wire.Request{ID: 1, Op: wire.OpPut, Cmd: wire.Put("k", []byte("v1"))}); resp.Result.Status != wire.StatusOK {
		t.Fatalf("PUT status = %v", resp.Result.Status)
	}
	for i := 0; i < 10; i++ {
		resp := rawRoundTrip(t, nc, br, &wire.Request{ID: uint32(10 + i), Op: wire.OpGet, Cmd: wire.Get("k")})
		if resp.Result.Status != wire.StatusOK || string(resp.Result.Val) != "v1" {
			t.Fatalf("GET #%d = (%v, %q), want (OK, v1)", i, resp.Result.Status, resp.Result.Val)
		}
	}
	if resp := rawRoundTrip(t, nc, br, &wire.Request{ID: 30, Op: wire.OpGet, Cmd: wire.Get("missing")}); resp.Result.Status != wire.StatusNotFound {
		t.Fatalf("GET missing status = %v, want NOT_FOUND", resp.Result.Status)
	}

	st := fetchStats(t, s).Server
	// The first GET may lose the race with the PUT's watermark retirement
	// (retire runs after the response is handed to the write loop), so at
	// most one of the 11 GETs may have fallen back.
	if st.FastReads < 10 {
		t.Fatalf("FastReads = %d, want >= 10 (fallbacks: %d)", st.FastReads, st.FastReadFallbacks)
	}
	if st.FastReads+st.FastReadFallbacks < 11 {
		t.Fatalf("fast-eligible GETs = %d, want 11", st.FastReads+st.FastReadFallbacks)
	}
}

// TestFastReadReadYourWrites is the session-guarantee test: a client
// pipelining PUT(k, v_i) immediately followed by GET(k) — no waiting for
// the PUT's ack — must read exactly v_i back. The watermark forces each
// such GET through the executor behind its own PUT (same key ⇒ same shard
// ⇒ same FIFO queue), so a fast read can never overtake the write.
func TestFastReadReadYourWrites(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 4})
	nc, br := rawDial(t, s)

	const rounds = 200
	for i := 0; i < rounds; i++ {
		val := fmt.Sprintf("v%d", i)
		rawSend(t, nc, &wire.Request{ID: uint32(2 * i), Op: wire.OpPut, Cmd: wire.Put("ryw", []byte(val))})
		rawSend(t, nc, &wire.Request{ID: uint32(2*i + 1), Op: wire.OpGet, Cmd: wire.Get("ryw")})
		// The GET runs after the PUT, but its answer may be written first:
		// a PUT retires once its response is queued for the write loop, and
		// a GET the read loop reaches after that is served fast, straight
		// into the connection's buffer.
		var put, resp wire.Response
		for range 2 {
			switch r := rawRecv(t, br); r.ID {
			case uint32(2 * i):
				put = r
			case uint32(2*i + 1):
				resp = r
			default:
				t.Fatalf("round %d: response to unknown request %d", i, r.ID)
			}
		}
		if put.Result.Status != wire.StatusOK {
			t.Fatalf("round %d: PUT status = %v", i, put.Result.Status)
		}
		if resp.Result.Status != wire.StatusOK || string(resp.Result.Val) != val {
			t.Fatalf("round %d: read-your-writes violated: GET = (%v, %q), want (OK, %q)",
				i, resp.Result.Status, resp.Result.Val, val)
		}
	}
}

// TestFastReadMonotonicAcrossPaths interleaves fast and fallback reads of a
// key another connection keeps incrementing and asserts the values never go
// backwards: the fast path's clock reads and the executor path's snapshot
// reads must tell one monotonic story per session.
func TestFastReadMonotonicAcrossPaths(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 4})

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		wc, err := dialRaw(s)
		if err != nil {
			t.Errorf("writer dial: %v", err)
			return
		}
		defer wc.nc.Close()
		for i := 0; i < 300; i++ {
			val := fmt.Sprintf("%06d", i)
			if resp, err := wc.roundTrip(&wire.Request{ID: uint32(i), Op: wire.OpPut, Cmd: wire.Put("mono", []byte(val))}); err != nil || resp.Result.Status != wire.StatusOK {
				t.Errorf("writer PUT %d: %v %v", i, err, resp.Result.Status)
				return
			}
		}
	}()

	// A failed check returns early; the writer must not report into a
	// finished test.
	defer func() { <-writerDone }()

	nc, br := rawDial(t, s)
	last := ""
	id := uint32(1000)
	for done := false; !done; {
		select {
		case <-writerDone:
			done = true
		default:
		}
		// One plain GET (fast-eligible) and one pipelined behind a PUT to a
		// key in the same shard (forced fallback): both observations feed
		// the same monotonicity check.
		for pass := 0; pass < 2; pass++ {
			putID := uint32(0)
			if pass == 1 {
				id++
				putID = id
				rawSend(t, nc, &wire.Request{ID: id, Op: wire.OpPut, Cmd: wire.Put("mono.other", []byte("x"))})
			}
			id++
			rawSend(t, nc, &wire.Request{ID: id, Op: wire.OpGet, Cmd: wire.Get("mono")})
			// The GET's answer can be written before the filler PUT's (see
			// TestFastReadReadYourWrites), so the two are told apart by ID.
			var resp wire.Response
			for range pass + 1 {
				switch r := rawRecv(t, br); r.ID {
				case putID:
					if r.Result.Status != wire.StatusOK {
						t.Fatalf("filler PUT status = %v", r.Result.Status)
					}
				case id:
					resp = r
				default:
					t.Fatalf("response to unknown request %d", r.ID)
				}
			}
			if resp.Result.Status == wire.StatusNotFound {
				continue
			}
			if resp.Result.Status != wire.StatusOK {
				t.Fatalf("GET status = %v", resp.Result.Status)
			}
			if v := string(resp.Result.Val); v < last {
				t.Fatalf("non-monotonic read: %q then %q", last, v)
			} else {
				last = v
			}
		}
	}
}

// TestFastReadCleanFallbackRate is the scripts/ci.sh smoke: on a clean run
// — prefill acknowledged, then pure sequential GETs — the fallback rate
// must stay at or below 1%. Only the first GET can legitimately fall back
// (racing the final PUT's watermark retirement); anything more means the
// watermark or the retry budget is misbehaving.
func TestFastReadCleanFallbackRate(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 4})
	nc, br := rawDial(t, s)

	const keys = 20
	for i := 0; i < keys; i++ {
		req := &wire.Request{ID: uint32(i), Op: wire.OpPut, Cmd: wire.Put(fmt.Sprintf("key-%d", i), []byte("v"))}
		if resp := rawRoundTrip(t, nc, br, req); resp.Result.Status != wire.StatusOK {
			t.Fatalf("prefill PUT %d: %v", i, resp.Result.Status)
		}
	}
	const reads = 400
	for i := 0; i < reads; i++ {
		req := &wire.Request{ID: uint32(100 + i), Op: wire.OpGet, Cmd: wire.Get(fmt.Sprintf("key-%d", i%keys))}
		if resp := rawRoundTrip(t, nc, br, req); resp.Result.Status != wire.StatusOK {
			t.Fatalf("GET %d: %v", i, resp.Result.Status)
		}
	}

	st := fetchStats(t, s).Server
	eligible := st.FastReads + st.FastReadFallbacks
	if eligible < reads {
		t.Fatalf("fast-eligible GETs = %d, want >= %d", eligible, reads)
	}
	if st.FastReadFallbacks*100 > eligible {
		t.Fatalf("fallback rate %d/%d exceeds 1%%", st.FastReadFallbacks, eligible)
	}
}
