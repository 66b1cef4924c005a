// The GET fast path: serve single-key reads directly in the connection read
// loop — no executor hop, no queueing behind writes, no transaction — on top
// of the MV-STM's transaction-free ReadLatest (DESIGN.md §13).
//
// Correctness splits into two obligations:
//
//   - Consistency: mvstm.ReadLatest serves the newest version visible at the
//     published commit clock. The clock is published only after a ticket's
//     write-back fully completed, in ticket order, so every fast read is a
//     consistent snapshot read — the same value a transaction beginning at
//     that instant would return — and two fast reads on one connection can
//     never observe clock values out of order (monotonic reads).
//
//   - Session order: a read must also not run ahead of the SAME connection's
//     own in-flight writes (read-your-writes) or behind them (a fast read
//     overtaking a queued write to the same key would serve the pre-write
//     value after the client already pipelined the write). The per-connection
//     watermark below enforces this: the read loop counts every admitted
//     single-key write per target shard (and MULTI batches globally), the
//     count drops only when the write's response is handed to the write loop
//     (after commit — and after fsync for durable deferred acks), and a GET
//     takes the fast path only when its shard's count and the MULTI count are
//     both zero. Since the read loop is the only frame source, the check runs
//     strictly after all earlier frames of the connection were admitted;
//     same-shard order for the fallback is preserved by shard-affine routing
//     (same key ⇒ same shard ⇒ same executor FIFO queue).
//
// Fallbacks — a pending same-shard write, a MULTI in flight, or ReadLatest's
// retry budget exhausted by concurrent version trims — route the GET through
// the ordinary executor path, so semantics never depend on the fast path
// winning; it only has to be right when it answers.
package server

import (
	"encoding/binary"

	"wtftm/internal/mutant"
	"wtftm/internal/obs"
	"wtftm/internal/wire"
)

// Sentinels for task.wshard / conn watermark classification.
const (
	// wshardNone marks a request the session watermark ignores (reads,
	// PING/STATS — nothing a later fast read could run ahead of).
	wshardNone int32 = -1
	// wshardAll marks a MULTI: it may write any shard, so it gates every
	// fast read on the connection until it retires.
	wshardAll int32 = -2
)

// writeShard classifies req for the session watermark: the target shard for
// single-key writes (PUT/DEL/CAS, dedup-enveloped or not), wshardAll for
// MULTI (conservatively treated as writing everywhere — scanning the batch
// per admission would cost more than the rare spurious fallback it avoids),
// wshardNone otherwise.
func (s *Server) writeShard(req *wire.Request) int32 {
	switch req.Op {
	case wire.OpPut, wire.OpDel, wire.OpCAS:
		return int32(s.store.shardOf(req.Cmd.Key))
	case wire.OpMulti:
		return wshardAll
	}
	return wshardNone
}

// admitWrite raises the connection's watermark for a request classified by
// writeShard; retire lowers it again when the request's response is handed
// off. Both run on behalf of the read loop's admission order.
func (c *conn) admitWrite(wshard int32) {
	switch {
	case wshard == wshardAll:
		c.pendWAll.Add(1)
	case wshard >= 0:
		c.pendW[wshard].Add(1)
	}
}

// tryFastGet serves payload in the read loop when it is an eligible plain
// single-key GET: the fast path is enabled, the frame is exactly a GET (any
// other shape falls through to the full decoder), no same-shard write or
// MULTI of this connection is in flight, and the lock-free read succeeds
// within its retry budget. The whole serving unit runs over the raw frame —
// wire.DecodeGetKey aliases the key out of the payload, the shard hash and
// bucket lookup run over those bytes, and the response is encoded by
// wire.AppendGetResult — so a fast GET touches no pooled Request or Response
// and materializes no key string. It reports whether the request was fully
// handled; on false the caller routes the payload through the ordinary
// decode-and-execute path unchanged.
//
// Fast reads deliberately skip the MaxInFlight shed check: they execute
// synchronously right here, add nothing to any queue, and answering them
// cheaply under overload is strictly better than shedding them.
func (c *conn) tryFastGet(payload []byte) bool {
	s := c.srv
	if !s.fastOK {
		return false
	}
	// Sampled latency: time 1 in 64 served fast reads. The sampler uses the
	// free-running fastSeq (fastN resets at every flush, so it cannot pace a
	// sampler), and the unsampled path pays one increment and one branch —
	// nothing the 0-alloc benchmark gate can see.
	c.fastSeq++
	if c.fastSeq&63 != 0 {
		return c.fastGetInner(payload)
	}
	t0 := obs.Now()
	ok := c.fastGetInner(payload)
	if ok {
		s.m.fastLat.ObserveStripe(c.stripe, obs.Now()-t0)
	}
	return ok
}

// fastGetInner is tryFastGet's serving body, split out so the sampling
// wrapper can time a whole served read.
func (c *conn) fastGetInner(payload []byte) bool {
	s := c.srv
	id, key, ok := wire.DecodeGetKey(payload)
	if !ok {
		return false
	}
	sh := s.store.shardOfBytes(key)
	if mutant.Active != mutant.FastGetIgnoresWatermark && (c.pendWAll.Load() != 0 || c.pendW[sh].Load() != 0) {
		c.fastFallbackN++
		return false
	}
	val, found, retries, rok := s.store.getFastBytes(sh, key)
	c.fastRetryN += int64(retries)
	if !rok {
		c.fastFallbackN++
		return false
	}
	c.fastN++
	c.fastSend(id, val, found)
	return true
}

// fastSend writes a GET response from the read loop itself: the frame —
// header and payload — is encoded in one pass straight into the
// connection's write buffer (bufio.Writer.AvailableBuffer, so no scratch
// buffer and no second copy; the buffer is shared with the write loop under
// wmu) and the flush is deferred until the read loop is about to block on
// the socket (flushFast, hooked into ReadFrameStalling). A pipelined burst
// of fast GETs therefore costs zero goroutine handoffs, one value copy and
// one response-side flush for the whole burst — the write loop and its
// queue never see it. The write deadline is armed only when this frame will
// actually reach the socket (buffer full ⇒ flush on entry); the deferred
// flush arms it itself.
func (c *conn) fastSend(id uint32, val string, found bool) {
	if c.wfail.Load() {
		return
	}
	// Take the write-buffer lock once per burst, not once per response: the
	// read loop keeps holding wmu across consecutive fast GETs (wheld) and
	// releases it wherever it could block — flushFast at every socket stall
	// and before a blocking enqueue, unhold before handing a response to the
	// write-loop queue. The write loop waits at most one burst's CPU time.
	if !c.wheld {
		c.wmu.Lock()
		c.wheld = true
	}
	// Upper bound of the encoded frame: 4 header + 4 id + 3 op/status/flag
	// + uvarint(len) ≤ 3 + value.
	need := len(val) + 16
	var werr error
	if c.bw.Available() < need {
		c.armWriteDeadline()
		werr = c.bw.Flush()
	}
	if werr == nil {
		if c.bw.Available() >= need {
			b := c.bw.AvailableBuffer()
			b = append(b, 0, 0, 0, 0) // header patched below
			b = wire.AppendGetResult(b, id, val, found)
			binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			_, werr = c.bw.Write(b)
		} else {
			// Value larger than the whole write buffer: encode via the
			// connection scratch and let bufio chunk the copy.
			payload := wire.AppendGetResult(c.fastScratch[:0], id, val, found)
			c.fastScratch = wire.RecycleFrameBuf(payload)
			werr = wire.WriteFrame(c.bw, payload)
		}
	}
	if werr != nil {
		c.unhold()
		c.wfail.Store(true)
		c.nc.Close()
		return
	}
	c.fastPend = true
}

// unhold releases the write-buffer lock a fast-read burst is holding, if
// any. The read loop MUST call it (directly, or via flushFast) before any
// operation that can block outside ReadFrameStalling — enqueueing to c.out,
// waiting on pending — because the write loop needs wmu to deliver
// responses. Runs only on the read-loop goroutine.
func (c *conn) unhold() {
	if c.wheld {
		c.wheld = false
		c.wmu.Unlock()
	}
}

// flushFast pushes out everything the fast path has deferred: the batched
// stats counters and the buffered response frames. It runs only on the
// read-loop goroutine — before every read that would block (via
// ReadFrameStalling) and before a blocking executor enqueue — so a response
// is never held while the connection waits for its client, and never flushed
// while more pipelined requests are already buffered (that is the batching).
func (c *conn) flushFast() {
	if c.fastN|c.fastRetryN|c.fastFallbackN != 0 {
		c.flushFastStats()
	}
	if !c.fastPend {
		c.unhold()
		return
	}
	c.fastPend = false
	if c.wfail.Load() {
		c.unhold()
		return
	}
	if !c.wheld {
		c.wmu.Lock()
	}
	c.wheld = false
	c.armWriteDeadline()
	err := c.bw.Flush()
	c.wmu.Unlock()
	if err != nil {
		c.wfail.Store(true)
		c.nc.Close()
	}
}

// flushFastStats publishes the read loop's batched fast-path counters into
// the server-wide atomics. Batching matters: three atomic adds per served
// read are measurable on the fast path, and STATS precision only needs the
// counters flushed whenever the connection stalls (flushFast) or exits (the
// read loop's defer) — a burst in progress may lag by its own length.
func (c *conn) flushFastStats() {
	s := c.srv
	s.requests.Add(c.fastN)
	s.keysServed.Add(c.fastN)
	s.fastReads.Add(c.fastN)
	s.fastReadRetries.Add(c.fastRetryN)
	s.fastReadFallbacks.Add(c.fastFallbackN)
	c.fastN, c.fastRetryN, c.fastFallbackN = 0, 0, 0
}
