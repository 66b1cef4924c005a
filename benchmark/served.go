package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"wtftm/internal/wire"
)

// Generator limits. A connection with maxInflight unanswered requests in
// the open loop has a backlog: the sender holds further requests back until
// replies arrive, and sends them, late, with their due times unchanged.
// pingID marks the PING that ends a phase.
const (
	maxInflight = 1024
	ringLen     = 2 * maxInflight
	pingID      = ^uint32(0)
	lateAfter   = int64(time.Millisecond)
	drainWait   = 30 * time.Second
	sendQuantum = int64(50 * time.Microsecond)
	maxSleep    = int64(10 * time.Millisecond)
)

type phaseKind int

const (
	phaseClosed phaseKind = iota
	phaseOpen
)

// phase is one timed section of a served run, cut into equal windows.
type phase struct {
	kind   phaseKind
	start  int64
	end    int64
	winLen int64
	nWin   int
}

func newPhase(kind phaseKind, dur time.Duration) *phase {
	p := &phase{kind: kind, nWin: int(dur / time.Second)}
	if p.nWin < 1 {
		p.nWin = 1
	}
	p.winLen = int64(dur) / int64(p.nWin)
	p.start = now()
	p.end = p.start + p.winLen*int64(p.nWin)
	return p
}

func (p *phase) window(t int64) int { return int((t - p.start) / p.winLen) }

// connResult is what one connection measured in one phase. The sender and
// the receiver goroutine each write their own fields only; drive folds the
// sender's into the totals once both are done.
type connResult struct {
	// sender
	attempted int64 // requests sent
	late      int64 // open loop: sent more than lateAfter past due
	sendErr   error

	// receiver
	answered   int64
	failed     int64 // non-OK statuses and oracle violations; drive adds the unanswered
	violations int64 // oracle failures (also counted in failed)
	userBytes  int64 // key+value bytes of acked writes
	lat        [2]*windowed
	firstBad   string
	err        error // drive adds the sender's, if the receiver had none

	sent int64 // set by drive
}

// slot remembers one in-flight request for the receiver.
type slot struct {
	o   op
	seq uint64 // write: the sequence or token number it carries
	min uint32 // read of an own key: its acked sequence at send time
	due int64  // open loop: due time
}

// genConn is one load-generating connection: a sender and a receiver
// goroutine per phase over one TCP connection.
type genConn struct {
	run *servedRun
	id  int
	nc  net.Conn
	bw  *bufio.Writer
	br  *bufio.Reader
	st  *stream
	rb  *reqBuilder

	slots  []slot
	nextID uint32        // sender-owned
	pub    atomic.Uint32 // slots of IDs below pub are filled (sender → receiver)
	recvd  atomic.Uint32 // responses received this phase (receiver → sender)
	tokens atomic.Uint64 // multi-hot: last token number this connection issued

	frame []byte
	rbuf  []byte
	resp  wire.Response
}

// servedRun is the state the connections of one served workload share.
type servedRun struct {
	w      *workload
	ks     *keyspace
	conns  []*genConn
	issued []atomic.Uint32 // per key: last sequence number sent
	acked  []atomic.Uint32 // per key: last sequence number acknowledged
	// completed counts the replies received since the run began, over all
	// connections and phases; the closed loop's meter reads it.
	completed atomic.Int64
}

func newServedRun(w *workload, seed uint64) *servedRun {
	r := &servedRun{w: w, ks: newKeyspace(w, seed)}
	if w.groups == 0 {
		r.issued = make([]atomic.Uint32, w.keys)
		r.acked = make([]atomic.Uint32, w.keys)
	}
	for i := 0; i < conns; i++ {
		c := &genConn{run: r, id: i, slots: make([]slot, ringLen),
			st: genStream(w, seed, i, conns, streamLen), rb: newReqBuilder(w, r.ks, i)}
		r.conns = append(r.conns, c)
	}
	return r
}

// connect (re)dials every generator connection.
func (r *servedRun) connect(addr string) error {
	for _, c := range r.conns {
		if c.nc != nil {
			c.nc.Close()
		}
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return err
		}
		c.nc = nc
		c.bw = bufio.NewWriterSize(nc, 64<<10)
		c.br = bufio.NewReaderSize(nc, 64<<10)
	}
	return nil
}

func (r *servedRun) close() {
	for _, c := range r.conns {
		if c.nc != nil {
			c.nc.Close()
		}
	}
}

// runPhase drives every connection through one phase and returns their
// results.
func (r *servedRun) runPhase(kind phaseKind, dur time.Duration) (*phase, []*connResult) {
	p := newPhase(kind, dur)
	res := make([]*connResult, len(r.conns))
	var wg sync.WaitGroup
	for i, c := range r.conns {
		res[i] = &connResult{}
		if kind == phaseOpen {
			perWin := int(r.w.rate/float64(len(r.conns))*float64(p.winLen)/1e9) + 64
			res[i].lat[0] = newWindowed(p.nWin, perWin)
			res[i].lat[1] = newWindowed(p.nWin, perWin)
		}
		wg.Add(1)
		go func(c *genConn, cr *connResult) {
			defer wg.Done()
			c.drive(p, cr)
		}(c, res[i])
	}
	wg.Wait()
	return p, res
}

// drive runs the sender on this goroutine and the receiver beside it.
func (c *genConn) drive(p *phase, cr *connResult) {
	wake := make(chan struct{}, 1) // closed loop: the receiver freed window places
	dead := make(chan struct{})    // closed by the receiver on a transport error
	var total atomic.Int64         // requests sent this phase; -1 until the sender is done
	total.Store(-1)
	recvDone := make(chan struct{})
	base := c.nextID
	c.recvd.Store(0)
	// A server that stops answering ends the phase through this deadline:
	// the receiver fails, closes dead, and the sender returns.
	c.nc.SetReadDeadline(time.Now().Add(time.Duration(p.end-p.start) + drainWait))
	go func() {
		defer close(recvDone)
		c.receive(p, cr, wake, dead, &total, base)
	}()
	c.send(p, cr, wake, dead, base)
	// End the phase with a PING: its reply tells a receiver that is parked
	// in a read that the sender is done and how many replies to expect.
	total.Store(int64(c.nextID - base))
	c.frame, _ = appendFrame(c.frame[:0], &wire.Request{ID: pingID, Op: wire.OpPing})
	if _, err := c.bw.Write(c.frame); err == nil {
		c.bw.Flush()
	}
	<-recvDone
	c.nc.SetReadDeadline(time.Time{})
	cr.sent = int64(c.nextID - base)
	if cr.err == nil {
		cr.err = cr.sendErr
	}
	if un := cr.sent - cr.answered; un > 0 {
		cr.failed += un // unanswered
		if cr.err == nil {
			cr.err = fmt.Errorf("conn %d: %d requests unanswered", c.id, un)
		}
	}
}

// issueOp fills the slot for op o and encodes its frame into the write
// buffer.
func (c *genConn) issueOp(o op, due int64, cr *connResult) error {
	id := c.nextID
	s := &c.slots[id&(ringLen-1)]
	*s = slot{o: o, due: due}
	r := c.run
	switch {
	case r.w.groups > 0:
		if o.write() {
			s.seq = c.tokens.Add(1)
		}
	case o.write():
		s.seq = uint64(r.issued[o.index()].Add(1))
	case o.index()%len(r.conns) == c.id:
		s.min = r.acked[o.index()].Load()
	}
	var err error
	if c.frame, err = appendFrame(c.frame[:0], c.rb.build(id, o, s.seq)); err != nil {
		return err
	}
	c.nextID++
	cr.attempted++
	_, err = c.bw.Write(c.frame)
	return err
}

// publish makes the slots filled so far visible to the receiver and pushes
// the buffered frames out.
func (c *genConn) publish() error {
	c.pub.Store(c.nextID)
	return c.bw.Flush()
}

// send is the sender goroutine of one phase; base is the first request id
// of the phase.
func (c *genConn) send(p *phase, cr *connResult, wake, dead chan struct{}, base uint32) {
	fail := func(err error) {
		cr.sendErr = fmt.Errorf("conn %d send: %w", c.id, err)
	}
	if p.kind != phaseOpen {
		// Closed loop: a sliding window of depth outstanding requests. The
		// receiver signals once per burst of replies, so refilling the
		// window costs one wake-up and one flush per burst, not per reply.
		for {
			free := c.run.w.depth - int(c.nextID-base-c.recvd.Load())
			if free <= 0 {
				select {
				case <-wake:
				case <-dead:
					return
				}
				continue
			}
			if now() >= p.end {
				return
			}
			for ; free > 0; free-- {
				o, _ := c.st.nextOp()
				if err := c.issueOp(o, 0, cr); err != nil {
					fail(err)
					return
				}
			}
			if err := c.publish(); err != nil {
				fail(err)
				return
			}
		}
	}

	// Open loop: requests fall due on a Poisson schedule drawn from the
	// seed, whatever the server is doing. A request sent late keeps its due
	// time, so the delay a stalled sender or server imposes on the requests
	// behind it is counted in their latency. At maxInflight unanswered
	// requests the sender holds back; the held requests keep their due
	// times too, and the sender goes on past the end of the phase until
	// every request that fell due in it is sent. A backlog therefore costs
	// latency, never requests; a server that stops answering altogether
	// ends the phase through the read deadline.
	meanGap := float64(len(c.run.conns)) / c.run.w.rate * 1e9
	sl, err := newSleeper()
	if err != nil {
		fail(err)
		return
	}
	defer sl.close()
	o, g := c.st.nextOp()
	due := float64(p.start) + float64(g)*meanGap
	lastSend := int64(0)
	for int64(due) < p.end {
		select {
		case <-dead:
			return
		default:
		}
		t := now()
		full := c.nextID-base-c.recvd.Load() >= maxInflight
		if d := int64(due) - t; d > 0 || full {
			// Wake at most once per sendQuantum: requests falling due
			// within one quantum leave in one write, as they would from a
			// client library that batches its socket writes.
			wait := max(d, lastSend+sendQuantum-t)
			if full {
				wait = max(wait, sendQuantum)
			}
			sl.sleep(min(wait, maxSleep))
			continue
		}
		lastSend = t
		for int64(due) <= t && int64(due) < p.end && c.nextID-base-c.recvd.Load() < maxInflight {
			if t-int64(due) > lateAfter {
				cr.late++
			}
			if err := c.issueOp(o, int64(due), cr); err != nil {
				fail(err)
				return
			}
			o, g = c.st.nextOp()
			due += float64(g) * meanGap
		}
		if err := c.publish(); err != nil {
			fail(err)
			return
		}
	}
}

// receive is the receiver goroutine of one phase: it matches replies to
// slots, applies the oracle, records completions and latencies, and ends
// once the sender's closing PING and every reply before it have arrived.
func (c *genConn) receive(p *phase, cr *connResult, wake, dead chan struct{}, total *atomic.Int64, base uint32) {
	pinged := false
	for {
		if n := total.Load(); pinged && n >= 0 && cr.answered >= n {
			return
		}
		payload, err := wire.ReadFrame(c.br, c.rbuf)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && cr.err == nil {
				cr.err = fmt.Errorf("conn %d receive: %w", c.id, err)
			}
			close(dead)
			return
		}
		t := now()
		c.rbuf = payload[:0]
		if err := wire.DecodeResponseInto(&c.resp, payload); err != nil {
			cr.err = fmt.Errorf("conn %d: undecodable response: %w", c.id, err)
			close(dead)
			return
		}
		id := c.resp.ID
		if id == pingID {
			pinged = true
			continue
		}
		if id-base >= c.pub.Load()-base {
			cr.err = fmt.Errorf("conn %d: response for id %d never sent", c.id, id)
			close(dead)
			return
		}
		s := &c.slots[id&(ringLen-1)]
		cr.answered++
		c.run.completed.Add(1)
		class := 0
		if s.o.write() {
			class = 1
		}
		if bad := c.check(s, cr); bad != "" {
			cr.failed++
			if cr.firstBad == "" {
				cr.firstBad = bad
			}
		}
		if p.kind == phaseOpen {
			cr.lat[class].add(p.window(s.due), t-s.due)
		}
		c.recvd.Add(1)
		if p.kind != phaseOpen {
			if _, more := wire.PeekFrame(c.br); !more {
				select {
				case wake <- struct{}{}:
				default:
				}
			}
		}
	}
}

// check applies the workload's oracle to the response in c.resp. It returns
// "" when the response is right, else what was wrong; oracle violations
// (as opposed to refusals such as BUSY) are also counted in cr.violations.
func (c *genConn) check(s *slot, cr *connResult) string {
	r, res := c.run, &c.resp.Result
	idx := s.o.index()
	if res.Status != wire.StatusOK {
		return fmt.Sprintf("%v answered %v %s", c.resp.Op, res.Status, res.Val)
	}
	violation := func(format string, a ...any) string {
		cr.violations++
		return fmt.Sprintf(format, a...)
	}
	if r.w.groups > 0 {
		if s.o.write() {
			return ""
		}
		// A read-only MULTI over one group must see one token on all keys:
		// anything else is a fractured read of an atomic 8-key write.
		if len(c.resp.Batch) != r.w.groupKeys {
			return violation("MULTI read of group %d returned %d results", idx, len(c.resp.Batch))
		}
		first := c.resp.Batch[0].Val
		for j := range c.resp.Batch {
			b := &c.resp.Batch[j]
			if b.Status != wire.StatusOK || string(b.Val) != string(first) {
				return violation("fractured read of group %d: key %d = %x, key 0 = %x", idx, j, b.Val, first)
			}
		}
		g, wc, seq, ok := parseToken(first)
		if !ok || g != idx || wc >= len(r.conns) || seq > r.conns[wc].tokens.Load() {
			return violation("group %d holds a token nobody wrote: %x", idx, first)
		}
		return ""
	}
	if s.o.write() {
		// Only this goroutine writes the key's acked number (one writer
		// connection per key). Acks of one key arrive in order — one shard,
		// one executor queue — but take the maximum anyway.
		if a := &r.acked[idx]; uint32(s.seq) > a.Load() {
			a.Store(uint32(s.seq))
		}
		cr.userBytes += int64(len(r.ks.keys[idx]) + r.w.valLen)
		return ""
	}
	seq, ok := r.ks.parseValue(res.Val, idx)
	switch {
	case !res.HasVal || !ok:
		return violation("GET %s returned a value no PUT carried (%d bytes)", r.ks.keys[idx], len(res.Val))
	case seq > r.issued[idx].Load():
		return violation("GET %s returned sequence %d, never issued", r.ks.keys[idx], seq)
	case seq < s.min:
		return violation("GET %s returned sequence %d, older than this connection's acked write %d", r.ks.keys[idx], seq, s.min)
	}
	return ""
}

// preload writes every key once (sequence or token number 0) over a short
// pipeline of MULTI batches, and returns the key+value bytes acknowledged.
func preload(w *workload, ks *keyspace, addr string) (int64, error) {
	c, err := dialRaw(addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	const window = 4
	var (
		batches  [][]wire.Cmd
		vals     []byte
		userByte int64
	)
	if w.groups > 0 {
		for g := 0; g < w.groups; g++ {
			at := len(vals)
			vals = appendToken(vals, g, 0, 0)
			var b []wire.Cmd
			for _, k := range ks.keys[g*w.groupKeys : (g+1)*w.groupKeys] {
				b = append(b, wire.Put(k, vals[at:at+tokenLen]))
				userByte += int64(len(k) + tokenLen)
			}
			batches = append(batches, b)
		}
	} else {
		const per = 256
		vals = make([]byte, 0, w.keys*w.valLen)
		for i := 0; i < w.keys; i += per {
			var b []wire.Cmd
			for k := i; k < i+per && k < w.keys; k++ {
				at := len(vals)
				vals = ks.appendValue(vals, k, 0)
				b = append(b, wire.Put(ks.keys[k], vals[at:]))
				userByte += int64(len(ks.keys[k]) + w.valLen)
			}
			batches = append(batches, b)
		}
	}
	var resp wire.Response
	inflight := 0
	recv := func() error {
		if err := c.recv(&resp); err != nil {
			return err
		}
		if resp.Result.Status != wire.StatusOK {
			return fmt.Errorf("preload MULTI answered %v %s", resp.Result.Status, resp.Result.Val)
		}
		inflight--
		return nil
	}
	for _, b := range batches {
		if inflight == window {
			if err := recv(); err != nil {
				return 0, err
			}
		}
		if err := c.send(&wire.Request{Op: wire.OpMulti, Batch: b}); err != nil {
			return 0, err
		}
		if err := c.flush(); err != nil {
			return 0, err
		}
		inflight++
	}
	for inflight > 0 {
		if err := recv(); err != nil {
			return 0, err
		}
	}
	return userByte, nil
}

// verifyRecovered reads every key back from a restarted durable server and
// checks the kill -9 contract: each key holds a write numbered between the
// last one acknowledged and the last one issued.
func (r *servedRun) verifyRecovered(addr string) (checked, bad int64, first string, err error) {
	c, err := dialRaw(addr)
	if err != nil {
		return 0, 0, "", err
	}
	defer c.close()
	const per = 256
	var resp wire.Response
	for i := 0; i < r.w.keys; i += per {
		end := min(i+per, r.w.keys)
		b := make([]wire.Cmd, 0, per)
		for k := i; k < end; k++ {
			b = append(b, wire.Get(r.ks.keys[k]))
		}
		if err := c.call(&wire.Request{Op: wire.OpMulti, Batch: b}, &resp); err != nil {
			return checked, bad, first, err
		}
		if len(resp.Batch) != end-i {
			return checked, bad, first, fmt.Errorf("verify MULTI returned %d of %d results", len(resp.Batch), end-i)
		}
		for k := i; k < end; k++ {
			res := &resp.Batch[k-i]
			checked++
			seq, ok := r.ks.parseValue(res.Val, k)
			lo, hi := r.acked[k].Load(), r.issued[k].Load()
			if res.Status != wire.StatusOK || !ok || seq < lo || seq > hi {
				bad++
				if first == "" {
					first = fmt.Sprintf("%s recovered as status %v sequence %d (valid %v), want %d..%d", r.ks.keys[k], res.Status, seq, ok, lo, hi)
				}
			}
		}
	}
	return checked, bad, first, nil
}
