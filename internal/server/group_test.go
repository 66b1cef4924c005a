package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"testing"

	"wtftm/internal/wire"
)

// held is a two-shard, two-executor server whose executor for one shard can
// be parked inside a request while a pipelined burst queues up behind it.
// Backlog is the only thing an executor coalesces, and this forms it from
// events alone — no timer, no sleep — so a test that asserts on group commits
// fails when coalescing breaks, never when the scheduler was merely quick.
type held struct {
	s                *Server
	shard            int // the parked executor's shard
	entered, release chan struct{}
}

const holdKey = "hold"

func startHeld(t *testing.T, cfg Config) *held {
	t.Helper()
	h := &held{entered: make(chan struct{}), release: make(chan struct{})}
	cfg.Shards, cfg.Executors = 2, 2
	cfg.execHook = func(req *wire.Request) {
		if req.Op == wire.OpPut && req.Cmd.Key == holdKey {
			h.entered <- struct{}{}
			<-h.release
		}
	}
	h.s = startServer(t, cfg)
	h.shard = h.s.store.shardOf(holdKey)
	return h
}

// keysOn returns n distinct keys of shard sh.
func (h *held) keysOn(sh, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("gk-%d", i); h.s.store.shardOf(k) == sh {
			keys = append(keys, k)
		}
	}
	return keys
}

// burst parks the executor, pipelines reqs (which must route to it) on one
// connection, releases the executor once all of them sit in its run queue,
// and returns their responses in request order plus the connection, on which
// the caller may go on talking to the server.
func (h *held) burst(t *testing.T, reqs []*wire.Request) ([]wire.Response, net.Conn, *bufio.Reader) {
	t.Helper()
	if len(reqs) > execQueue {
		t.Fatalf("a burst of %d does not fit the run queue (%d)", len(reqs), execQueue)
	}
	nc, br := rawDial(t, h.s)
	rawSend(t, nc, &wire.Request{ID: 0, Op: wire.OpPut, Cmd: wire.Put(holdKey, []byte("x"))})
	<-h.entered
	for i, req := range reqs {
		req.ID = uint32(i + 1)
		rawSend(t, nc, req)
	}
	// The read loop admits a connection's frames in order, and the fence is
	// a GET for the other shard, served by the executor that is not parked:
	// its answer means every frame before it is queued.
	fence := &wire.Request{ID: uint32(len(reqs) + 1), Op: wire.OpGet, Cmd: wire.Get(h.keysOn(1-h.shard, 1)[0])}
	if resp := rawRoundTrip(t, nc, br, fence); resp.ID != fence.ID {
		t.Fatalf("response %d overtook the parked executor", resp.ID)
	}
	h.release <- struct{}{}
	out := make([]wire.Response, len(reqs))
	for range len(reqs) + 1 {
		if resp := rawRecv(t, br); resp.ID > 0 {
			out[resp.ID-1] = resp
		}
	}
	return out, nc, br
}

// TestGroupCommitLastWriterWins pipelines interleaved PUTs at the keys of one
// shard behind a parked executor, so they commit as coalesced units, and
// checks that every key ends at its own last write: group commit may re-batch
// transactions, but per-key queue order must survive. MULTIs ride in the same
// stream so the flush-before-solo path (non-coalescible work arriving
// mid-unit) is exercised too.
func TestGroupCommitLastWriterWins(t *testing.T) {
	leakCheck(t)
	h := startHeld(t, Config{})
	keys := h.keysOn(h.shard, 4)

	const rounds = 24
	var reqs []*wire.Request
	for i := 1; i <= rounds; i++ {
		for _, k := range keys {
			reqs = append(reqs, &wire.Request{Op: wire.OpPut, Cmd: wire.Put(k, []byte(strconv.Itoa(i)))})
		}
		if i%4 == 0 {
			// Queued on the parked executor (first key's shard): it must
			// flush the open unit and run between two coalesced ones.
			reqs = append(reqs, &wire.Request{Op: wire.OpMulti, Batch: []wire.Cmd{
				wire.Get(keys[0]),
				wire.Put("multi-side", []byte(strconv.Itoa(i))),
			}})
		}
	}
	resps, nc, br := h.burst(t, reqs)
	for i, resp := range resps {
		if resp.Result.Status != wire.StatusOK {
			t.Fatalf("request %d (%v): %+v", i, reqs[i].Op, resp.Result)
		}
		if reqs[i].Op == wire.OpMulti {
			// The MULTI's GET sits behind the round's PUT of that key.
			if got, want := string(resp.Batch[0].Val), string(reqs[i].Batch[1].Val); got != want {
				t.Fatalf("MULTI after round %s read %q", want, got)
			}
		}
	}

	last := strconv.Itoa(rounds)
	for i, k := range append(keys, "multi-side") {
		resp := rawRoundTrip(t, nc, br, &wire.Request{ID: uint32(1000 + i), Op: wire.OpGet, Cmd: wire.Get(k)})
		if got := string(resp.Result.Val); resp.Result.Status != wire.StatusOK || got != last {
			t.Fatalf("key %s = %q (%v), want %q (last writer must win)", k, got, resp.Result.Status, last)
		}
	}
	if h.s.groupCommits.Load() == 0 || h.s.groupedOps.Load() == 0 {
		t.Fatalf("no group commits happened (commits=%d ops=%d); a queued backlog was not coalesced",
			h.s.groupCommits.Load(), h.s.groupedOps.Load())
	}
}

// TestGroupCommitCASAllOrNothing pipelines a chain of CAS increments at one
// key, each sent twice, so that matching and stale CASes alternate inside
// coalesced units. Each CAS keeps its single-op semantics there: a match
// installs its write where the next member of the unit sees it, a mismatch
// skips exactly its own write and reports the current value. The counter's
// final value therefore equals the number of successful CAS ops — any lost
// or doubled update breaks the equality.
func TestGroupCommitCASAllOrNothing(t *testing.T) {
	leakCheck(t)
	h := startHeld(t, Config{})
	key := h.keysOn(h.shard, 1)[0]

	const target = 50
	reqs := []*wire.Request{{Op: wire.OpPut, Cmd: wire.Put(key, []byte("0"))}}
	for i := 0; i < target; i++ {
		for range 2 { // the second copy finds its expectation already consumed
			reqs = append(reqs, &wire.Request{Op: wire.OpCAS,
				Cmd: wire.CAS(key, []byte(strconv.Itoa(i)), []byte(strconv.Itoa(i+1)))})
		}
	}
	resps, nc, br := h.burst(t, reqs)
	succ := 0
	for i, resp := range resps[1:] {
		cur := strconv.Itoa(i/2 + 1)
		switch {
		case i%2 == 0 && resp.Result.Status == wire.StatusOK:
			succ++
		case i%2 == 1 && resp.Result.Status == wire.StatusCASMismatch && string(resp.Result.Val) == cur:
		default:
			t.Fatalf("CAS %d (copy %d of →%s): %+v", i, i%2, cur, resp.Result)
		}
	}

	final := rawRoundTrip(t, nc, br, &wire.Request{ID: 1000, Op: wire.OpGet, Cmd: wire.Get(key)})
	if got := string(final.Result.Val); succ != target || got != strconv.Itoa(succ) {
		t.Fatalf("counter = %q after %d successful CAS ops of %d; increments were lost or doubled", got, succ, target)
	}
	if h.s.groupCommits.Load() == 0 {
		t.Fatalf("no group commits happened; CAS semantics were never tested under coalescing")
	}
}
