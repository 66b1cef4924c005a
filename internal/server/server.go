// Package server implements wtfd, a sharded transactional key-value store
// daemon that serves the WTF-TM futures engine over TCP.
//
// Every request executes as one top-level transaction of the engine
// (System.Atomic), and a MULTI request — a batch of GET/PUT/DEL/CAS commands
// over any shards — applies its commands in order inside that one
// transaction and commits all or nothing. No served request submits a
// future: a MULTI's per-shard work is a few map operations, far less than a
// future costs, so wtfd serves the engine for its top-level transactions.
//
// Concurrency model: one read loop and one write loop per connection, plus a
// fixed set of shard-affine executors (DESIGN.md §10). Each executor owns a
// subset of the store's shards and a bounded run queue; the read loop decodes
// frames and enqueues each request on the queue of the executor that owns its
// key's shard, so same-shard requests never contend on a shared channel or on
// each other's STM validation. Admission control has two stages: when a run
// queue is full the read loop blocks, which stalls that connection's TCP
// window and pushes backpressure to the client, and past MaxInFlight admitted
// requests across all connections the server sheds store requests with
// StatusBusy instead of queueing them. Responses carry the request's ID, so
// pipelined requests of one connection may be answered out of order as their
// transactions commit.
//
// Everything an executor dequeues commits through one write pipeline
// (pipeline.go): consecutive single-key commands coalesce into one unit, a
// solo request is a unit of one, a MULTI is a unit whose body adds the
// all-or-nothing CAS rule, and a memory-only server is the same sequence
// with no log. The only request that does not take it is a single-key GET
// the read loop can serve itself (fastread.go).
//
// The request lifecycle is allocation-free in steady state: frame buffers,
// wire.Request and wire.Response objects are pooled (size-capped), decoding
// reuses batch and value backings, and responses are recycled after their
// frame is flushed.
//
// Shutdown is graceful by default: Drain refuses new connections, stops
// reading new requests, completes every in-flight transaction, flushes the
// responses, and only then closes connections.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wtftm"
	"wtftm/internal/obs"
	"wtftm/internal/wal"
	"wtftm/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Ordering is the engine's futures semantics (default WO). No served
	// request submits a future, so the setting reaches no served
	// transaction; STATS and /metrics echo it.
	Ordering wtftm.Ordering
	// Shards is the number of store partitions; default 16.
	Shards int
	// Buckets is the per-shard hash-map bucket count; default 64.
	Buckets int
	// Executors is the number of shard-affine executor goroutines; shard sh
	// is owned by executor sh mod Executors, so all single-key traffic for
	// one shard runs on one goroutine. Default GOMAXPROCS, capped at Shards.
	Executors int
	// IdleTimeout bounds how long a connection may sit between frames (or
	// take to deliver one frame) before the server reaps it: a partitioned
	// or wedged client must not hold its connection — and the server-side
	// goroutines behind it — forever. Default 2m; negative disables.
	IdleTimeout time.Duration
	// MaxInFlight bounds the admitted-but-unanswered request count across
	// all connections. At the bound the server answers store requests with
	// StatusBusy instead of queueing them (overload shedding: the client
	// backs off and retries instead of deepening the queues); PING and
	// STATS are always admitted so health checks see through overload.
	// Default 4096; negative disables (unbounded queueing).
	MaxInFlight int
	// DataDir, when non-empty, enables durability: the store gets one
	// write-ahead log and every shard rolling snapshots under this
	// directory, boot recovers the store from them, and writes are
	// acknowledged only after they satisfy the Fsync policy. Empty means
	// memory-only (the default).
	DataDir string
	// Fsync selects when WAL appends are fsynced: wal.SyncGroup (default)
	// runs one coalesced barrier per commit group before acking,
	// wal.SyncAlways fsyncs every append, wal.SyncOff never fsyncs on the
	// ack path (graceful shutdown still syncs; a power cut may lose the
	// tail). Ignored without DataDir.
	Fsync wal.SyncPolicy
	// SnapshotEvery checkpoints a shard (snapshot + log compaction) after
	// this many WAL records carrying its writes. 0 means the 65536 default; negative disables
	// automatic checkpoints. Ignored without DataDir.
	SnapshotEvery int64
	// SegmentBytes is the WAL segment rotation threshold (0 = wal default).
	SegmentBytes int64
	// FS overrides the durability layer's file system (crash-injection
	// tests); nil means the real one.
	FS wal.FS

	// SlowMS is the flight-recorder threshold: a request slower than this
	// end-to-end (decode through response hand-off, fsync wait included) is
	// captured — op, key hash, shard, outcome, per-stage timings — in a
	// fixed-size ring served at /debug/wtfd/slow and dumped by wtfd on
	// SIGQUIT. 0 means the 20ms default; negative disables the recorder.
	// The metrics registry itself (DebugHandler, the STATS latency
	// section) is always on.
	SlowMS int

	// execHook, when non-nil, runs at the start of every request execution.
	// Tests use it to hold requests in flight; a hooked server routes every
	// GET through an executor, where the hook can see it.
	execHook func(*wire.Request)
}

// Sizes and a timeout that no deployment, workload or test sets differently.
const (
	// execQueue bounds each executor's admitted-but-not-executing run queue;
	// when it is full connection read loops block (TCP backpressure).
	execQueue = 128
	// groupLimit bounds how many consecutive single-key commands an executor
	// coalesces into one unit (pipeline.go).
	groupLimit = 32
	// writerQueue bounds each connection's queued-but-unwritten responses;
	// executors block when it fills (the write loop is draining or the client
	// stopped reading). STATS reports its high-water mark.
	writerQueue = 64
	// writeTimeout bounds one response frame write; a connection whose client
	// stops reading is closed rather than allowed to wedge an executor.
	writeTimeout = 30 * time.Second
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.Shards <= 0 {
		out.Shards = 16
	}
	if out.Buckets <= 0 {
		out.Buckets = 64
	}
	if out.Executors <= 0 {
		out.Executors = runtime.GOMAXPROCS(0)
	}
	if out.Executors > out.Shards {
		out.Executors = out.Shards
	}
	if out.IdleTimeout == 0 {
		out.IdleTimeout = 2 * time.Minute
	} else if out.IdleTimeout < 0 {
		out.IdleTimeout = 0
	}
	if out.MaxInFlight == 0 {
		out.MaxInFlight = 4096
	} else if out.MaxInFlight < 0 {
		out.MaxInFlight = 0
	}
	return out
}

// ErrClosed is returned by Listen on a server that was already shut down.
var ErrClosed = errors.New("server: closed")

// Server is one wtfd instance.
type Server struct {
	cfg   Config
	stm   *wtftm.STM
	sys   *wtftm.System
	store *store
	dur   *durability // nil on a memory-only server

	ln    net.Listener
	execs []*executor
	m     *metrics      // observability registry wiring; always non-nil
	rr    atomic.Uint32 // round-robin cursor for keyless requests
	quit  chan struct{} // closed by Drain: stop admitting requests

	mu       sync.Mutex
	conns    map[*conn]struct{}
	started  bool
	draining atomic.Bool

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
	execWG   sync.WaitGroup

	dedup dedupTable // exactly-once table for retried writes

	connsOpened  atomic.Int64
	connsActive  atomic.Int64
	requests     atomic.Int64
	keysServed   atomic.Int64
	multiBatches atomic.Int64
	badFrames    atomic.Int64
	groupCommits atomic.Int64
	groupedOps   atomic.Int64
	writerQHWM   atomic.Int64
	execQHWM     atomic.Int64
	inflight     atomic.Int64
	reading      atomic.Int64 // read loops not parked on their socket (nothingCanJoin)
	shed         atomic.Int64
	dedupHits    atomic.Int64
	idleReaped   atomic.Int64

	// fastOK gates the GET fast path (fastread.go); it is off only for a
	// server built with an execHook.
	fastOK bool

	fastReads         atomic.Int64
	fastReadRetries   atomic.Int64
	fastReadFallbacks atomic.Int64
}

// task is one admitted request awaiting execution. resp is filled in by the
// owning executor (group commits acquire all of a group's responses before
// running the shared transaction).
type task struct {
	c    *conn
	req  *wire.Request
	resp *wire.Response
	// wshard is the request's session-watermark classification (see
	// fastread.go): the target shard of a single-key write, wshardAll for
	// MULTI, wshardNone otherwise. Retiring the task lowers the matching
	// watermark counter.
	wshard int32
	// enq is the admission timestamp (obs.Now, set right after decode) the
	// queue-wait stage is measured from; dec is the frame's decode duration
	// (both metrics.go).
	enq int64
	dec int64
}

// connBufSize sizes each connection's read and write buffers. 32 KiB keeps
// a whole pipelined burst (hundreds of small frames) to one read syscall
// and one response flush; at two buffers per connection the memory cost
// only matters far beyond the connection counts this server targets.
const connBufSize = 32 << 10

// conn is one accepted connection: a read loop (runs serveConn), a write
// loop, and a count of requests admitted but not yet answered.
type conn struct {
	srv     *Server
	nc      net.Conn
	out     chan *wire.Response
	pending sync.WaitGroup
	wfail   atomic.Bool // write failed; further responses are dropped

	// wmu serializes frame writes to bw between the write loop (executor
	// responses) and the read loop (fast-read responses written in place;
	// see fastread.go). lastWDL caps write-deadline re-arming to once per
	// writeTimeout/4 — a per-frame SetWriteDeadline is a timer syscall on
	// the hottest path for at worst a quarter-window of deadline slack.
	wmu     sync.Mutex
	bw      *bufio.Writer
	lastWDL time.Time

	// Fast-read state, owned by the read loop: the response encode scratch,
	// whether bw holds fast responses not yet flushed (flushed when the read
	// loop is about to block; see (*conn).flushFast), and the batched stats
	// counters (served / ReadLatest retries / fallbacks) published by
	// flushFastStats.
	fastScratch   []byte
	fastPend      bool
	wheld         bool // read loop holds wmu across a fast-read burst
	fastN         int64
	fastRetryN    int64
	fastFallbackN int64
	// fastSeq free-runs across bursts to pick the 1-in-64 latency samples
	// (fastN resets at every stats flush, so it cannot pace the sampler);
	// stripe is this connection's histogram stripe hint.
	fastSeq uint32
	stripe  uint32

	// Session watermark for the GET fast path (fastread.go): pendW[sh]
	// counts this connection's admitted-but-unretired single-key writes to
	// shard sh, pendWAll its in-flight MULTI batches. A GET may bypass the
	// executor only while its shard's counter and pendWAll are both zero —
	// that is what preserves read-your-writes and per-key read/write order
	// for a pipelining client.
	pendW    []atomic.Int32
	pendWAll atomic.Int32

	// parked is set while the read loop waits on the socket, with nothing
	// buffered that it has not admitted; Server.reading counts the loops
	// where it is not.
	parked bool
}

// New creates a server over a fresh STM and futures engine. With a DataDir
// it also opens the durability layer and recovers the store from the latest
// snapshots plus the WAL suffix, so the error return is only ever non-nil
// for durable configurations.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	stm := wtftm.NewSTM()
	sys := wtftm.NewSystem(stm, wtftm.Options{Ordering: cfg.Ordering})
	s := &Server{
		cfg:   cfg,
		stm:   stm,
		sys:   sys,
		store: newStore(stm, cfg.Shards, cfg.Buckets),
		quit:  make(chan struct{}),
		conns: make(map[*conn]struct{}),
		// A fast read bypasses the executors, so a test's execHook would
		// never see it; with no hook every GET the watermark allows is
		// served from the read loop.
		fastOK: cfg.execHook == nil,
	}
	s.execs = make([]*executor, cfg.Executors)
	for i := range s.execs {
		s.execs[i] = newExecutor(s, i)
	}
	// Metrics before durability: boot recovery replays through the STM and
	// the durability layer records its barrier latencies.
	s.m = newMetrics(s)
	if cfg.DataDir != "" {
		d, err := newDurability(s, cfg)
		if err != nil {
			return nil, fmt.Errorf("server: durability: %w", err)
		}
		s.dur = d
	}
	return s, nil
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving. It returns
// once the listener is accepting; use Addr to discover the bound address.
func (s *Server) Listen(addr string) error {
	if s.draining.Load() {
		return ErrClosed
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Serve(ln)
	return nil
}

// Serve starts serving on an existing listener (ownership transfers to the
// server; Drain closes it).
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	if !s.started {
		s.started = true
		for _, ex := range s.execs {
			s.execWG.Add(1)
			go ex.loop()
		}
	}
	s.mu.Unlock()
	s.acceptWG.Add(1)
	go s.acceptLoop(ln)
}

// Addr returns the bound listener address.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.acceptWG.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed (Drain) or fatal
		}
		c := &conn{srv: s, nc: nc, out: make(chan *wire.Response, writerQueue),
			pendW: make([]atomic.Int32, s.cfg.Shards)}
		c.stripe = uint32(s.connsOpened.Load()) // histogram stripe hint
		c.bw = bufio.NewWriterSize(nc, connBufSize)
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsOpened.Add(1)
		s.connsActive.Add(1)
		s.connWG.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// executorFor routes a request to the executor owning its key's shard.
// MULTI batches go to the executor owning their first command's shard, which
// runs the whole batch as one transaction; keyless requests (PING, STATS)
// are spread round-robin.
func (s *Server) executorFor(req *wire.Request) *executor {
	switch req.Op {
	case wire.OpGet, wire.OpPut, wire.OpDel, wire.OpCAS:
		return s.execs[s.store.shardOf(req.Cmd.Key)%len(s.execs)]
	case wire.OpMulti:
		if len(req.Batch) > 0 {
			return s.execs[s.store.shardOf(req.Batch[0].Key)%len(s.execs)]
		}
	}
	return s.execs[int(s.rr.Add(1)%uint32(len(s.execs)))]
}

// atomicMax lifts a to at least v (monotonic high-water mark).
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// readLoop decodes frames and admits requests to their shard's executor. A
// malformed frame closes only this connection (after counting it); a full
// run queue blocks, exerting backpressure through TCP. Past MaxInFlight
// admitted requests the loop sheds store requests with StatusBusy instead of
// queueing them, and an IdleTimeout read deadline reaps connections that go
// silent (re-armed at most every IdleTimeout/4 to keep the syscall off the
// per-frame hot path).
func (c *conn) readLoop() {
	s := c.srv
	defer func() {
		// In-flight requests of this connection still complete and their
		// responses still flush: the write loop exits only after pending
		// drained and out closed. flushFast publishes the batched fast-read
		// counters and — critically — releases the held write-buffer lock
		// BEFORE pending.Wait: the write loop needs wmu to deliver the very
		// responses pending waits for.
		if !c.parked {
			s.reading.Add(-1)
		}
		c.flushFast()
		c.pending.Wait()
		close(c.out)
		s.connWG.Done()
	}()
	s.reading.Add(1)
	br := bufio.NewReaderSize(c.nc, connBufSize)
	var buf []byte
	idle := s.cfg.IdleTimeout
	var lastArm time.Time
	if idle > 0 {
		lastArm = time.Now()
		c.nc.SetReadDeadline(lastArm.Add(idle))
	}
	rearmIdle := func() {
		if idle <= 0 {
			return
		}
		if now := time.Now(); now.Sub(lastArm) >= idle/4 {
			lastArm = now
			c.nc.SetReadDeadline(now.Add(idle))
			if s.draining.Load() {
				// Drain may have set its unblocking deadline between our
				// check and re-arm; restore it so Drain never wedges.
				c.nc.SetReadDeadline(now)
			}
		}
	}
	// onStall runs whenever the loop is about to park on the socket: flush
	// deferred fast-read responses (so a pipelined burst costs one response
	// flush, not one per GET — fastread.go), maintain the idle deadline and
	// mark the loop parked.
	// Re-arming here instead of per frame keeps time.Now off the hot path:
	// while frames are flowing the connection is by definition not idle, and
	// the frame-counter check below covers a connection that streams
	// continuously for a quarter of its idle window without ever stalling.
	onStall := func() {
		rearmIdle()
		c.flushFast()
		if !c.parked {
			c.parked = true
			s.reading.Add(-1)
		}
	}
	var frames uint
	for {
		// Zero-copy dispatch: when the next frame is already entirely
		// buffered and turns out to be a fast-servable GET, serve it
		// straight out of the read buffer — no copy into buf, no recycle.
		// Any other outcome (frame split across reads, non-GET, watermark
		// or retry fallback) falls through to the ordinary copying read,
		// which re-parses the still-unconsumed frame from the buffer.
		fastTried := false
		if s.fastOK && !s.draining.Load() {
			if payload, ok := wire.PeekFrame(br); ok {
				if c.tryFastGet(payload) {
					br.Discard(len(payload) + 4)
					if frames++; frames&0x3fff == 0 {
						rearmIdle()
					}
					continue
				}
				fastTried = true // don't re-try (and re-count) below
			}
		}
		payload, err := wire.ReadFrameStalling(br, buf, onStall)
		if c.parked {
			c.parked = false
			s.reading.Add(1)
		}
		if err != nil {
			// EOF and deadline-induced errors are normal disconnect/drain;
			// protocol violations are counted, idle reaps tallied.
			if errors.Is(err, wire.ErrFrameTooLarge) {
				s.badFrames.Add(1)
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !s.draining.Load() {
				s.idleReaped.Add(1)
			}
			return
		}
		if frames++; frames&0x3fff == 0 {
			rearmIdle()
		}
		// GET fast path (fastread.go): serve eligible single-key reads right
		// here, on the raw frame — no pooled Request, no key string, no
		// queue, no executor — and before the shed check (a fast read
		// executes synchronously and adds nothing to any queue, so shedding
		// it would be pure loss).
		if !fastTried && !s.draining.Load() && c.tryFastGet(payload) {
			buf = wire.RecycleFrameBuf(payload)
			continue
		}
		// Reuse the backing array for the next frame, unless one oversized
		// frame inflated it past the retention cap.
		buf = wire.RecycleFrameBuf(payload)
		req := wire.AcquireRequest()
		decStart := obs.Now()
		if err := wire.DecodeRequestInto(req, payload); err != nil {
			// The stream is unparseable past this point (framing may be
			// fine but we cannot trust it): answer if the ID header was
			// readable, then close.
			s.badFrames.Add(1)
			resp := wire.AcquireResponse()
			resp.ID, resp.Op, resp.Result = req.ID, req.Op, wire.ErrResult(err.Error())
			wire.ReleaseRequest(req)
			c.unhold() // c.send may block on out; the write loop needs wmu
			c.send(resp)
			return
		}
		decEnd := obs.Now()
		decNS := decEnd - decStart
		s.m.stage[stDecode][opClass(req.Op)].ObserveStripe(c.stripe, decNS)
		if s.draining.Load() {
			c.unhold()
			c.sendStatus(req, wire.StatusUnavailable)
			wire.ReleaseRequest(req)
			return
		}
		if m := s.cfg.MaxInFlight; m > 0 && req.Op != wire.OpPing && req.Op != wire.OpStats &&
			s.inflight.Load() >= int64(m) {
			// Overload: refuse rather than queue. The connection stays open —
			// shedding is per request, and the client's backoff is the relief
			// valve.
			s.shed.Add(1)
			c.unhold()
			c.sendStatus(req, wire.StatusBusy)
			wire.ReleaseRequest(req)
			continue
		}
		ex := s.executorFor(req)
		wshard := s.writeShard(req)
		c.admitWrite(wshard)
		c.pending.Add(1)
		s.inflight.Add(1)
		depth := int64(len(ex.q)) + 1
		select {
		case ex.q <- task{c: c, req: req, wshard: wshard, enq: decEnd, dec: decNS}:
			atomicMax(&s.execQHWM, depth)
		default:
			// The run queue is full and the send below will block
			// (backpressure): push out any deferred fast-read responses
			// first so they are not held across the wait. The flush lives
			// on this slow branch only — flushing before every enqueue
			// would fragment a mixed burst's response writes at each
			// interleaved write op. (Deferred responses never deadlock
			// either way: the write loop's next response flush drains the
			// shared buffer too.)
			c.flushFast()
			select {
			case ex.q <- task{c: c, req: req, wshard: wshard, enq: decEnd, dec: decNS}:
				atomicMax(&s.execQHWM, depth)
			case <-s.quit:
				c.retire(wshard)
				c.sendStatus(req, wire.StatusUnavailable)
				wire.ReleaseRequest(req)
				return
			}
		}
	}
}

// done retires one admitted request: the server-wide in-flight count (the
// shedding bound) and the connection's pending count drop together.
func (c *conn) done() {
	c.srv.inflight.Add(-1)
	c.pending.Done()
}

// retire is done plus the session-watermark decrement for tracked writes
// (see fastread.go). Every task admitted by the read loop must retire with
// the wshard it was admitted under, after its response has been handed off
// — for durable deferred acks that is after the fsync barrier, which is
// conservative (the commit is already visible) but never early.
func (c *conn) retire(wshard int32) {
	switch {
	case wshard == wshardAll:
		c.pendWAll.Add(-1)
	case wshard >= 0:
		c.pendW[wshard].Add(-1)
	}
	c.done()
}

// sendStatus enqueues a bare-status response for req.
func (c *conn) sendStatus(req *wire.Request, st wire.Status) {
	resp := wire.AcquireResponse()
	resp.ID, resp.Op, resp.Result = req.ID, req.Op, wire.Result{Status: st}
	c.send(resp)
}

// send enqueues a response for the write loop, which releases it back to the
// pool after encoding. It blocks only while the write loop is alive and
// healthy; after a write failure responses are dropped (the client is gone).
func (c *conn) send(resp *wire.Response) {
	if c.wfail.Load() {
		wire.ReleaseResponse(resp)
		return
	}
	depth := int64(len(c.out)) + 1
	if m := int64(cap(c.out)); depth > m {
		depth = m
	}
	c.out <- resp
	atomicMax(&c.srv.writerQHWM, depth)
}

// armWriteDeadline pushes the connection's write deadline out to writeTimeout
// from now, re-arming at most once per quarter window: a slow client is still
// reaped within [3/4, 1]×writeTimeout of its last progress, but the steady
// state pays the deadline timer syscall once per window, not once per frame.
// Callers hold wmu.
func (c *conn) armWriteDeadline() {
	if now := time.Now(); now.Sub(c.lastWDL) >= writeTimeout/4 {
		c.lastWDL = now
		c.nc.SetWriteDeadline(now.Add(writeTimeout))
	}
}

func (c *conn) writeLoop() {
	s := c.srv
	defer func() {
		c.nc.Close()
		s.connsActive.Add(-1)
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connWG.Done()
	}()
	var scratch []byte
	for resp := range c.out {
		if c.wfail.Load() {
			wire.ReleaseResponse(resp)
			continue // drain without writing; executors must never block here
		}
		payload, err := wire.AppendResponse(scratch[:0], resp)
		if err != nil {
			payload, _ = wire.AppendResponse(scratch[:0], &wire.Response{
				ID: resp.ID, Op: resp.Op, Result: wire.ErrResult("server: response encoding failed"),
			})
		}
		wire.ReleaseResponse(resp)
		scratch = wire.RecycleFrameBuf(payload)
		c.wmu.Lock()
		c.armWriteDeadline()
		werr := wire.WriteFrame(c.bw, payload)
		if werr == nil && len(c.out) == 0 {
			werr = c.bw.Flush() // flush only when no more responses are queued
		}
		c.wmu.Unlock()
		if werr != nil {
			c.wfail.Store(true)
			c.nc.Close() // unblock the read loop too
		}
	}
	if !c.wfail.Load() {
		// The read loop has exited (out is closed after pending drained), so
		// this final flush also covers any fast responses it left buffered.
		c.wmu.Lock()
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		c.bw.Flush()
		c.wmu.Unlock()
	}
}

// statsReply assembles the STATS document from the server counters plus the
// engine and substrate snapshots. Both snapshots come through the wtftm
// facade — external callers can consume the same numbers without importing
// any internal package.
func (s *Server) statsReply() wire.StatsReply {
	var (
		e wtftm.StatsSnapshot    = s.sys.Stats().Snapshot()
		m wtftm.STMStatsSnapshot = s.stm.Stats().Snapshot()
	)
	var walSec *wire.WALStats
	if s.dur != nil {
		walSec = s.dur.walStats(&s.cfg, time.Now().UnixNano())
	}
	return wire.StatsReply{
		WAL:     walSec,
		Latency: s.m.latencySection(),
		Aborts:  s.m.abortSection(),
		Server: wire.ServerStats{
			Ordering:          s.sys.Options().Ordering.String(),
			Shards:            s.cfg.Shards,
			Executors:         s.cfg.Executors,
			WriterQueueHWM:    s.writerQHWM.Load(),
			ExecQueueHWM:      s.execQHWM.Load(),
			GroupCommits:      s.groupCommits.Load(),
			GroupedOps:        s.groupedOps.Load(),
			ConnsOpened:       s.connsOpened.Load(),
			ConnsActive:       s.connsActive.Load(),
			Requests:          s.requests.Load(),
			KeysServed:        s.keysServed.Load(),
			MultiBatches:      s.multiBatches.Load(),
			BadFrames:         s.badFrames.Load(),
			MaxInFlight:       s.cfg.MaxInFlight,
			InFlight:          s.inflight.Load(),
			Shed:              s.shed.Load(),
			FastReads:         s.fastReads.Load(),
			FastReadRetries:   s.fastReadRetries.Load(),
			FastReadFallbacks: s.fastReadFallbacks.Load(),
			DedupHits:         s.dedupHits.Load(),
			IdleReaped:        s.idleReaped.Load(),
			Draining:          s.draining.Load(),
		},
		Engine: wire.EngineStats{
			TopCommits:          e.TopCommits,
			TopConflict:         e.TopConflict,
			TopInternal:         e.TopInternal,
			FuturesSubmitted:    e.FuturesSubmitted,
			MergedAtSubmission:  e.MergedAtSubmission,
			MergedAtEvaluation:  e.MergedAtEvaluation,
			FutureReexecutions:  e.FutureReexecutions,
			ImplicitEvaluations: e.ImplicitEvaluations,
			EscapedFutures:      e.EscapedFutures,
			EscapeReexecs:       e.EscapeReexecs,
			ClaimedAtEvaluation: e.ClaimedAtEvaluation,
			WorkerWakes:         e.WorkerWakes,
		},
		STM: wire.STMStats{
			Commits:         m.Commits,
			ReadOnlyCommits: m.ReadOnlyCommits,
			Conflicts:       m.Conflicts,
			Begins:          m.Begins,
			HelpedCommits:   m.HelpedCommits,
			CommitQueueHWM:  m.CommitQueueHWM,
		},
	}
}

// Drain shuts the server down gracefully: refuse new connections, stop
// reading new requests, let every in-flight transaction commit and its
// response flush, then close all connections and stop the executors. It is
// idempotent and returns once the server is fully quiescent (no goroutines
// left).
func (s *Server) Drain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close() // new connections now fail at dial/accept
	}
	// Unblock read loops parked in ReadFrame on idle connections; loops
	// with a request mid-execution finish it first (pending.Wait).
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	close(s.quit)
	s.acceptWG.Wait()
	s.connWG.Wait()
	for _, ex := range s.execs {
		close(ex.q)
	}
	s.execWG.Wait()
	if s.dur != nil {
		// All executors are quiescent: stop the ack daemon (syncing and
		// delivering every still-deferred ack), flush in-flight checkpoints,
		// fsync the log's final segment (all policies — a graceful shutdown
		// never loses acknowledged or even unacknowledged committed writes)
		// and close the log.
		s.dur.close()
	}
}

// Close is Drain; the graceful path is cheap enough that an abrupt variant
// is not worth a second shutdown state machine.
func (s *Server) Close() { s.Drain() }
