package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wtftm"
	"wtftm/internal/client"
	"wtftm/internal/wire"
)

// leakCheck snapshots the goroutine count and asserts — with retries, since
// exiting goroutines need a moment to unwind — that it returns to the
// baseline after the test body and shutdown ran.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var after int
		for {
			after = runtime.NumGoroutine()
			if after <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(s.Drain)
	return s
}

func newClient(t *testing.T, s *Server, conns int) *client.Client {
	t.Helper()
	cl := client.New(client.Options{Addr: s.Addr().String(), Conns: conns})
	t.Cleanup(cl.Close)
	return cl
}

// TestConfigSurface pins Config's exported fields. A new knob is an edit to
// this list, which is where it has to be argued: an option earns its place
// when two deployments or benchmark workloads need different values;
// otherwise it is a constant, or something New can derive.
func TestConfigSurface(t *testing.T) {
	want := []string{ // 12
		"Buckets", "DataDir", "Executors", "FS", "Fsync", "IdleTimeout",
		"MaxInFlight", "Ordering", "SegmentBytes", "Shards", "SlowMS",
		"SnapshotEvery",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("Config's exported fields changed:\n got %d %v\nwant %d %v", len(got), got, len(want), want)
	}
}

func TestBasicOps(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 4})
	cl := newClient(t, s, 1)

	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if _, ok, err := cl.Get("missing"); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v err=%v, want miss", ok, err)
	}
	if err := cl.Put("k", "v1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, ok, err := cl.Get("k"); err != nil || !ok || v != "v1" {
		t.Fatalf("Get(k) = %q ok=%v err=%v, want v1", v, ok, err)
	}

	// CAS: wrong expectation fails and reports the current value.
	if ok, cur, err := cl.CAS("k", []byte("wrong"), "v2"); err != nil || ok || string(cur) != "v1" {
		t.Fatalf("CAS(wrong) = ok=%v cur=%q err=%v", ok, cur, err)
	}
	if ok, _, err := cl.CAS("k", []byte("v1"), "v2"); err != nil || !ok {
		t.Fatalf("CAS(v1→v2) = ok=%v err=%v", ok, err)
	}
	// Expect-absent CAS: fails on a present key, creates an absent one.
	if ok, cur, err := cl.CAS("k", nil, "v3"); err != nil || ok || string(cur) != "v2" {
		t.Fatalf("CAS(absent,k) = ok=%v cur=%q err=%v", ok, cur, err)
	}
	if ok, _, err := cl.CAS("fresh", nil, "born"); err != nil || !ok {
		t.Fatalf("CAS(absent,fresh) = ok=%v err=%v", ok, err)
	}

	if existed, err := cl.Del("k"); err != nil || !existed {
		t.Fatalf("Del(k) = %v err=%v", existed, err)
	}
	if existed, err := cl.Del("k"); err != nil || existed {
		t.Fatalf("Del(k) again = %v err=%v, want absent", existed, err)
	}
}

// TestMultiFanOut: a MULTI whose commands fan out over several shards is
// one inline transaction under either ordering. It returns every value,
// submits no future and wakes no worker, and later commands of the batch see
// the effects of earlier ones in unit order.
func TestMultiFanOut(t *testing.T) {
	leakCheck(t)
	for _, ord := range []wtftm.Ordering{wtftm.WO, wtftm.SO} {
		t.Run(ord.String(), func(t *testing.T) {
			s := startServer(t, Config{Shards: 8, Ordering: ord})
			cl := newClient(t, s, 1)

			var puts, gets []wire.Cmd
			shards := map[int]bool{}
			for i := 0; i < 32; i++ {
				k := fmt.Sprintf("key-%d", i)
				puts = append(puts, wire.Put(k, []byte(strconv.Itoa(i))))
				gets = append(gets, wire.Get(k))
				shards[s.store.shardOf(k)] = true
			}
			if len(shards) < 3 {
				t.Fatalf("the batch spans %d shards, want at least 3", len(shards))
			}
			results, applied, err := cl.Multi(puts)
			if err != nil || !applied {
				t.Fatalf("Multi(puts) applied=%v err=%v", applied, err)
			}
			if len(results) != len(puts) {
				t.Fatalf("got %d results, want %d", len(results), len(puts))
			}
			results, applied, err = cl.Multi(gets)
			if err != nil || !applied {
				t.Fatalf("Multi(gets) applied=%v err=%v", applied, err)
			}
			for i, r := range results {
				if r.Status != wire.StatusOK || string(r.Val) != strconv.Itoa(i) {
					t.Fatalf("result[%d] = %+v, want %d", i, r, i)
				}
			}

			// Unit order inside one batch: the CAS sees the PUT before it,
			// and the GET sees the CAS.
			results, applied, err = cl.Multi([]wire.Cmd{
				wire.Put("ordered", []byte("a")),
				wire.CAS("ordered", []byte("a"), []byte("b")),
				wire.Get("ordered"),
			})
			if err != nil || !applied {
				t.Fatalf("Multi(put, cas, get) applied=%v err=%v %+v", applied, err, results)
			}
			if r := results[2]; r.Status != wire.StatusOK || string(r.Val) != "b" {
				t.Fatalf("GET after PUT a, CAS a→b in one batch = %+v, want b", r)
			}

			st, err := cl.Stats()
			if err != nil {
				t.Fatalf("Stats: %v", err)
			}
			if st.Engine.FuturesSubmitted != 0 || st.Engine.WorkerWakes != 0 {
				t.Fatalf("MULTI batches submitted %d futures and woke %d workers, want none",
					st.Engine.FuturesSubmitted, st.Engine.WorkerWakes)
			}
			if st.Server.Ordering != ord.String() {
				t.Fatalf("stats ordering = %q, want %q", st.Server.Ordering, ord)
			}
		})
	}
}

func TestMultiAllOrNothingCAS(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 8})
	cl := newClient(t, s, 1)

	if err := cl.Put("a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put("b", "2"); err != nil {
		t.Fatal(err)
	}
	// One matching CAS, one mismatching: the whole batch (including the
	// matching write and the plain PUT) must not apply.
	results, applied, err := cl.Multi([]wire.Cmd{
		wire.CAS("a", []byte("1"), []byte("10")),
		wire.Put("c", []byte("3")),
		wire.CAS("b", []byte("stale"), []byte("20")),
	})
	if err != nil {
		t.Fatalf("Multi: %v", err)
	}
	if applied {
		t.Fatal("batch with failed CAS reported applied")
	}
	if results[0].Status != wire.StatusOK || results[2].Status != wire.StatusCASMismatch {
		t.Fatalf("per-op results = %+v", results)
	}
	for key, want := range map[string]string{"a": "1", "b": "2"} {
		if v, ok, _ := cl.Get(key); !ok || v != want {
			t.Fatalf("after aborted batch, %s = %q (ok=%v), want %q", key, v, ok, want)
		}
	}
	if _, ok, _ := cl.Get("c"); ok {
		t.Fatal("PUT from aborted batch is visible")
	}
}

// TestMultiSnapshotInvariant is the privatization-safety / atomicity check:
// concurrent MULTI transfers (CAS pairs) keep the total constant, and every
// MULTI read batch observes a consistent snapshot — never a torn transfer —
// even though its results are handed off to a response writer on another
// goroutine after commit.
func TestMultiSnapshotInvariant(t *testing.T) {
	leakCheck(t)
	const (
		accounts = 8
		initBal  = 100
		writers  = 4
		readers  = 2
	)
	s := startServer(t, Config{Shards: 8})

	seed := newClient(t, s, 1)
	var init []wire.Cmd
	for i := 0; i < accounts; i++ {
		init = append(init, wire.Put(fmt.Sprintf("acct-%d", i), []byte(strconv.Itoa(initBal))))
	}
	if _, applied, err := seed.Multi(init); err != nil || !applied {
		t.Fatalf("seed: applied=%v err=%v", applied, err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	// The test runs until enough verified work happened, not for a fixed
	// wall-clock window: workers report applied transfers and consistent
	// snapshots, and the main goroutine stops the run once both minimums
	// are met (bounded by a generous deadline).
	var transfers, snapshots atomic.Int64
	progress := make(chan struct{}, 1)
	bump := func(ctr *atomic.Int64) {
		ctr.Add(1)
		select {
		case progress <- struct{}{}:
		default:
		}
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := client.New(client.Options{Addr: s.Addr().String(), Conns: 1})
			defer cl.Close()
			rnd := uint64(w)*2654435761 + 1
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rnd = rnd*6364136223846793005 + 1442695040888963407
				from := int(rnd>>33) % accounts
				to := (from + 1 + int(rnd>>21)%(accounts-1)) % accounts
				fk, tk := fmt.Sprintf("acct-%d", from), fmt.Sprintf("acct-%d", to)

				// Read both balances in one atomic batch, then try to apply
				// the transfer with a CAS pair; on mismatch, retry.
				reads, applied, err := cl.Multi([]wire.Cmd{wire.Get(fk), wire.Get(tk)})
				if err != nil || !applied {
					errs <- fmt.Errorf("writer read: applied=%v err=%v", applied, err)
					return
				}
				fb, _ := strconv.Atoi(string(reads[0].Val))
				tb, _ := strconv.Atoi(string(reads[1].Val))
				if fb == 0 {
					continue
				}
				_, applied, err = cl.Multi([]wire.Cmd{
					wire.CAS(fk, reads[0].Val, []byte(strconv.Itoa(fb-1))),
					wire.CAS(tk, reads[1].Val, []byte(strconv.Itoa(tb+1))),
				})
				if err != nil {
					errs <- fmt.Errorf("writer cas: %v", err)
					return
				}
				if applied {
					bump(&transfers)
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(client.Options{Addr: s.Addr().String(), Conns: 1})
			defer cl.Close()
			var batch []wire.Cmd
			for i := 0; i < accounts; i++ {
				batch = append(batch, wire.Get(fmt.Sprintf("acct-%d", i)))
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				results, applied, err := cl.Multi(batch)
				if err != nil || !applied {
					errs <- fmt.Errorf("reader: applied=%v err=%v", applied, err)
					return
				}
				total := 0
				for _, r := range results {
					n, _ := strconv.Atoi(string(r.Val))
					total += n
				}
				if total != accounts*initBal {
					errs <- fmt.Errorf("torn snapshot: total = %d, want %d", total, accounts*initBal)
					return
				}
				bump(&snapshots)
			}
		}()
	}

	const minWork = 25
	deadline := time.After(30 * time.Second)
	for transfers.Load() < minWork || snapshots.Load() < minWork {
		select {
		case <-progress:
		case err := <-errs:
			close(stop)
			wg.Wait()
			t.Fatal(err)
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("stalled: %d transfers, %d snapshots (want %d each)",
				transfers.Load(), snapshots.Load(), minWork)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestMalformedFrames sends protocol garbage and asserts the server drops
// only the offending connection and keeps serving others.
func TestMalformedFrames(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 2})
	cl := newClient(t, s, 1)
	if err := cl.Put("stable", "yes"); err != nil {
		t.Fatal(err)
	}

	attacks := [][]byte{
		// Oversized frame declaration.
		{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3},
		// Valid length, unknown opcode.
		{0, 0, 0, 6, 0, 0, 0, 1, 0x7F, 0},
		// Valid length, truncated GET body.
		{0, 0, 0, 7, 0, 0, 0, 2, byte(wire.OpGet), 40, 'x'},
		// Random noise.
		bytes.Repeat([]byte{0xA5}, 64),
	}
	for i, attack := range attacks {
		nc, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatalf("attack %d: dial: %v", i, err)
		}
		if _, err := nc.Write(attack); err != nil {
			t.Fatalf("attack %d: write: %v", i, err)
		}
		// The server must close the connection (possibly after an ERR
		// response); it must not hang or crash.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			buf := make([]byte, 4096)
			if _, err := nc.Read(buf); err != nil {
				break
			}
		}
		nc.Close()
	}

	// A mid-frame disconnect: declare 100 bytes, send 3, vanish.
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte{0, 0, 0, 100, 1, 2, 3})
	nc.Close()

	// A mid-request disconnect: full valid request, close before reading
	// the response. The server must execute it and discard the response.
	payload, err := wire.AppendRequest(nil, &wire.Request{ID: 9, Op: wire.OpPut, Cmd: wire.Put("orphan", []byte("v"))})
	if err != nil {
		t.Fatal(err)
	}
	nc, err = net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, payload); err != nil {
		t.Fatal(err)
	}
	nc.Close()

	// The well-behaved client still works.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok, err := cl.Get("stable"); err == nil && ok && v == "yes" {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("server unhealthy after malformed frames: %q %v %v", v, ok, err)
		}
	}
	if s.badFrames.Load() == 0 {
		t.Fatal("malformed frames were not counted")
	}
}

// TestPipelining drives many concurrent requests over a single connection
// and checks every response is matched to its request.
func TestPipelining(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 4, Executors: 8})
	cl := newClient(t, s, 1) // one connection: everything pipelines on it

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("p-%d-%d", g, i)
				if err := cl.Put(key, key); err != nil {
					errs <- err
					return
				}
				v, ok, err := cl.Get(key)
				if err != nil || !ok || v != key {
					errs <- fmt.Errorf("Get(%s) = %q ok=%v err=%v", key, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestStatsCounters checks the STATS op surfaces the substrate counters
// exported through the wtftm facade (satellite: HelpedCommits/CommitQueueHWM
// must be readable without importing internal/mvstm).
func TestStatsCounters(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 4})
	cl := newClient(t, s, 1)
	for i := 0; i < 10; i++ {
		if err := cl.Put(fmt.Sprintf("s-%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.STM.Commits < 10 {
		t.Fatalf("stm commits = %d, want >= 10", st.STM.Commits)
	}
	if st.STM.CommitQueueHWM < 1 {
		t.Fatalf("commit queue HWM = %d, want >= 1", st.STM.CommitQueueHWM)
	}
	if st.Server.Requests < 11 || st.Server.ConnsOpened < 1 {
		t.Fatalf("server counters off: %+v", st.Server)
	}
	// Cross-check against the facade-level snapshots directly.
	direct := s.stm.Stats().Snapshot()
	if direct.Commits < st.STM.Commits {
		t.Fatalf("facade snapshot (%d) behind stats op (%d)", direct.Commits, st.STM.Commits)
	}
}

func TestUnsupportedStoreOpInMulti(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 2})
	// Hand-encode a MULTI carrying a STATS sub-op (the client refuses to):
	// the encoder rejects it, so splice the opcode in manually.
	payload, err := wire.AppendRequest(nil, &wire.Request{ID: 5, Op: wire.OpMulti, Batch: []wire.Cmd{wire.Get("k")}})
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.LastIndexByte(payload, byte(wire.OpGet))
	payload[idx] = byte(wire.OpStats)
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, payload); err != nil {
		t.Fatal(err)
	}
	// The decode fails server-side; an ERR response (or close) must follow,
	// not a hang or crash.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	got, err := wire.ReadFrame(br, nil)
	if err == nil {
		resp, derr := wire.DecodeResponse(got)
		if derr != nil {
			t.Fatalf("undecodable ERR response: %v", derr)
		}
		if resp.Result.Status != wire.StatusErr {
			t.Fatalf("status = %v, want ERR", resp.Result.Status)
		}
		if !strings.Contains(string(resp.Result.Val), "wire") {
			t.Logf("err message: %s", resp.Result.Val)
		}
	}
}
