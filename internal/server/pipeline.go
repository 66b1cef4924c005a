// The write pipeline (DESIGN.md §10): the one path every request that
// reaches an executor commits through.
//
// A unit is what one top-level transaction commits: the single-key commands
// an executor coalesced from its run queue — a solo request, dedup-enveloped
// or not, is a unit of one — or one MULTI batch. Units differ only in their
// transaction body (sequential applies vs per-shard futures plus the
// all-or-nothing CAS rule); the sequence around the body is the same for
// all of them, durable or not:
//
//	plan     route every command to its shard; the candidate write shards
//	         are the shards of the commands that may write
//	lock     take the candidates' commit locks, ascending
//	commit   run the body as one System.Atomic
//	log      append each candidate shard's effective writes as one record
//	unlock
//	barrier  fsync the shards that received a record (policy group)
//	ack      hand the responses to their connections' write loops
//
// Holding a shard's commit lock across the STM commit AND the WAL append is
// what makes log order equal commit order per shard: no other commit for
// that shard can slip between the two. Fsyncs happen after unlock — they
// order nothing, they only make the already-ordered prefix durable. Every
// unit locks in ascending shard order, and the checkpointer holds one shard
// lock at a time, so nothing here can deadlock. This is the only place the
// argument has to be made, because it is the only place that locks.
//
// A memory-only server runs the same sequence with no log: the plan finds no
// shard that has one, so lock, log, unlock and barrier are loops over
// nothing.
//
// Only *effective* writes are logged: a PUT or a matched CAS logs a put, a
// DEL that removed a key logs a delete; reads, missed deletes and mismatched
// CASes contribute nothing (they performed no store write, so replay without
// them reproduces the committed state exactly). A failed append or sync
// fails the whole unit — the in-memory commit may be ahead of the log at
// that instant, but no client was acked, and the WAL's sticky error keeps
// every later write failing until the operator replaces the disk.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"wtftm"
	"wtftm/internal/obs"
	"wtftm/internal/wal"
	"wtftm/internal/wire"
)

// errCASMismatch aborts a MULTI transaction whose batch contained a failed
// CAS: System.Atomic discards every write of the attempt, which is exactly
// the all-or-nothing batch rule the protocol documents.
var errCASMismatch = errors.New("server: MULTI contained a failed CAS")

// unit is one commit unit's working set. Each executor owns one and reuses
// it, so the pipeline allocates nothing in steady state.
type unit struct {
	srv *Server

	cmds     []*wire.Cmd   // the unit's store commands, in unit order
	cmdShard []int         // each command's shard, found once by the plan
	res      []wire.Result // one result slot per command

	groups   [][]int // per shard: indices into cmds, unit order preserved
	order    []int   // shards the unit touches, first-touch order
	shards   []int   // candidate write shards, ascending (the lock order)
	appended []int   // shards that received a WAL record
	buf      []byte  // WAL record encode buffer

	// MULTI fan-out: one future body per shard, bound once (it applies
	// whatever groups[shard] holds when it runs); the future handles; and a
	// count of submitted future bodies so the slots above are never reused
	// (by a retry attempt or by the next unit) while a straggler from an
	// aborted attempt may still touch them.
	bodies []func(*wtftm.Tx) (any, error)
	futs   []*wtftm.Future
	wg     sync.WaitGroup
}

func newUnit(s *Server) *unit {
	u := &unit{
		srv:    s,
		groups: make([][]int, s.cfg.Shards),
		bodies: make([]func(*wtftm.Tx) (any, error), s.cfg.Shards),
	}
	for sh := range u.bodies {
		u.bodies[sh] = func(ftx *wtftm.Tx) (any, error) {
			defer u.wg.Done()
			for _, i := range u.groups[sh] {
				u.res[i] = s.store.apply(ftx, sh, u.cmds[i])
			}
			return nil, nil
		}
	}
	return u
}

// release drops the unit's references into the requests and the result
// values once the responses hold their own copies: a reused unit must pin
// nothing between commits (an idle executor would otherwise keep its last
// unit's values alive indefinitely).
func (u *unit) release() {
	clear(u.cmds)
	clear(u.res)
	u.cmds, u.res = u.cmds[:0], u.res[:0]
}

// applySeq is the body of a single-key unit: the commands apply in queue
// order inside the shared transaction, so per-key last-writer-wins is
// exactly the order clients observed; a CAS mismatch skips its own write
// without disturbing the rest (single-op semantics), which is why coalescing
// changes no observable outcome, only the number of commits.
func (u *unit) applySeq(tx *wtftm.Tx) error {
	for i, c := range u.cmds {
		u.res[i] = u.srv.store.apply(tx, u.cmdShard[i], c)
	}
	return nil
}

// applyMulti is the body of a MULTI: the per-shard command groups fan out
// as transactional futures, then the all-or-nothing CAS rule decides the
// batch. The continuation (which submits the futures and evaluates them in
// submission order) touches no boxes itself, so under WO the futures
// overwhelmingly serialize at their submission points; under SO each future
// additionally waits for its predecessor to settle — the straggler
// behaviour the server experiment measures.
func (u *unit) applyMulti(tx *wtftm.Tx) error {
	// An aborted attempt's future goroutines may still be finishing their
	// last store.apply when the retry starts; join them before reusing the
	// result slots they write into.
	u.wg.Wait()
	if len(u.order) <= 1 {
		u.applySeq(tx) // one shard: nothing to run in parallel
	} else {
		u.srv.futureFanouts.Add(int64(len(u.order)))
		u.futs = u.futs[:0]
		for _, sh := range u.order {
			u.wg.Add(1)
			u.futs = append(u.futs, tx.Submit(u.bodies[sh]))
		}
		for _, f := range u.futs {
			if _, err := tx.Evaluate(f); err != nil {
				return err
			}
		}
	}
	for i := range u.res {
		if u.res[i].Status == wire.StatusCASMismatch {
			// Abort the whole batch: no write of this attempt commits. The
			// reads in res are still a consistent snapshot, so the
			// per-command results remain meaningful to the client.
			return errCASMismatch
		}
	}
	return nil
}

// canWrite reports whether an op kind may mutate the store.
func canWrite(op wire.Op) bool {
	switch op {
	case wire.OpPut, wire.OpDel, wire.OpCAS:
		return true
	}
	return false
}

// effectiveWrite reports whether a committed command actually mutated the
// store: PUT and matched CAS always, DEL only when the key existed.
func effectiveWrite(cmd *wire.Cmd, res wire.Result) bool {
	return res.Status == wire.StatusOK && canWrite(cmd.Op)
}

// appendOp encodes one effective write into an in-progress batch.
func appendOp(buf []byte, cmd *wire.Cmd) []byte {
	if cmd.Op == wire.OpDel {
		return wal.AppendDel(buf, cmd.Key)
	}
	return wal.AppendPut(buf, cmd.Key, cmd.Val) // PUT or matched CAS
}

// commit runs u.cmds through plan → lock → commit → log → unlock (see the
// file comment) with body as the transaction, leaving the results in u.res
// and adding the shards that now need a barrier to u.appended. err is the
// transaction's outcome (nothing was written or logged when it is non-nil);
// durErr is a failed append: committed in memory but not durable, so the
// unit must never be acked.
func (s *Server) commit(u *unit, body func(*wtftm.Tx) error) (err, durErr error) {
	if n := len(u.cmds); cap(u.res) < n {
		u.res = make([]wire.Result, n)
	} else {
		u.res = u.res[:n] // zeroed by release
	}
	for _, sh := range u.order {
		u.groups[sh] = u.groups[sh][:0]
	}
	u.order, u.shards, u.cmdShard = u.order[:0], u.shards[:0], u.cmdShard[:0]
	// d is nil on a memory-only server. This is the pipeline's only check
	// of it: without a log no shard becomes a candidate, and every later
	// stage walks the candidate list.
	d := s.dur
	for i, c := range u.cmds {
		sh := s.store.shardOf(c.Key)
		u.cmdShard = append(u.cmdShard, sh)
		if len(u.groups[sh]) == 0 {
			u.order = append(u.order, sh)
		}
		u.groups[sh] = append(u.groups[sh], i)
		if d != nil && canWrite(c.Op) {
			u.shards = insertShard(u.shards, sh)
		}
	}

	for _, sh := range u.shards {
		d.mgr.Lock(sh)
	}
	err = s.sys.Atomic(body)
	// Join stragglers of a finally-aborted attempt before anyone reads the
	// result slots or recycles the requests their bodies read, and drop the
	// future handles: each one pins its whole transaction (write sets, the
	// versions it read) for as long as the unit keeps it.
	u.wg.Wait()
	clear(u.futs)
	if err == nil {
		// Only a committed transaction logs anything; an aborted one (CAS
		// mismatch, terminal engine error) wrote nothing.
		for _, sh := range u.shards {
			n := 0
			for _, i := range u.groups[sh] {
				if effectiveWrite(u.cmds[i], u.res[i]) {
					n++
				}
			}
			if n == 0 {
				continue
			}
			s.m.batchOps.Observe(int64(n))
			atomicMax(&d.batchOpsHWM, int64(n))
			buf := wal.AppendBatchHeader(u.buf[:0], n)
			for _, i := range u.groups[sh] {
				if effectiveWrite(u.cmds[i], u.res[i]) {
					buf = appendOp(buf, u.cmds[i])
				}
			}
			u.buf = buf
			if _, durErr = d.mgr.Append(sh, buf); durErr != nil {
				break
			}
			u.appended = append(u.appended, sh)
		}
	}
	for _, sh := range u.shards {
		d.mgr.Unlock(sh)
	}
	return err, durErr
}

// run executes one unit: the tasks an executor dequeued together (coalesced
// single-key commands, or exactly one request of any other kind). It
// acquires the responses, commits, runs the durability barrier, hands the
// responses to the write loops and recycles the requests. Stage accounting
// is stated in metrics.go (unitClass).
//
// The response values are either immutable committed strings read at the
// transaction's snapshot or freshly built server-side buffers, so handing
// them to a write loop after commit requires no further synchronization
// (privatization safety; DESIGN.md §7).
func (e *executor) run(tasks []task) {
	s, u := e.srv, e.unit
	m := s.m
	opc := unitClass(tasks)
	start := obs.Now()
	for i := range tasks {
		t := &tasks[i]
		if t.enq > 0 {
			m.stage[stQueue][opClass(t.req.Op)].Observe(start - t.enq)
		}
		if s.cfg.execHook != nil {
			s.cfg.execHook(t.req)
		}
		t.resp = wire.AcquireResponse()
		t.resp.ID, t.resp.Op = t.req.ID, t.req.Op
	}
	s.requests.Add(int64(len(tasks)))
	first, resp := tasks[0].req, tasks[0].resp

	// Exactly-once resend: answer a retried write from the table instead of
	// applying it twice; a first execution records its outcome below, once
	// it is settled. Dedup'd requests never coalesce (see coalescible), so
	// the unit is this one request.
	replayed := first.Dedup && s.dedup.lookup(first.ClientID, first.Seq, resp)
	var err, durErr error
	u.appended = u.appended[:0] // a unit that never reaches commit logged nothing
	switch {
	case replayed:
		s.dedupHits.Add(1)
	case first.Op == wire.OpPing:
		resp.Result = wire.OKResult()
	case first.Op == wire.OpStats:
		if b, jerr := json.Marshal(s.statsReply()); jerr != nil {
			resp.Result = wire.ErrResult(jerr.Error())
		} else {
			resp.Result = wire.ValResult(b)
		}
	case first.Op == wire.OpMulti:
		s.multiBatches.Add(1)
		s.keysServed.Add(int64(len(first.Batch)))
		for i := range first.Batch {
			u.cmds = append(u.cmds, &first.Batch[i])
		}
		err, durErr = s.commit(u, u.applyMulti)
		switch {
		case errors.Is(err, errCASMismatch):
			// A settled outcome, not a failure: nothing committed, and the
			// per-command results tell the client which CAS missed.
			resp.Result, err = wire.Result{Status: wire.StatusCASMismatch}, nil
			resp.Batch = append(resp.Batch[:0], u.res...)
		case err == nil:
			resp.Result = wire.OKResult()
			resp.Batch = append(resp.Batch[:0], u.res...)
		}
	case singleKey(first.Op):
		s.keysServed.Add(int64(len(tasks)))
		m.groupSize.Observe(int64(len(tasks)))
		if len(tasks) > 1 {
			s.groupCommits.Add(1)
			s.groupedOps.Add(int64(len(tasks)))
		}
		for i := range tasks {
			u.cmds = append(u.cmds, &tasks[i].req.Cmd)
		}
		if err, durErr = s.commit(u, u.applySeq); err == nil {
			for i := range tasks {
				tasks[i].resp.Result = u.res[i]
			}
		}
	default:
		resp.Result = wire.ErrResult(fmt.Sprintf("server: unsupported op %v", first.Op))
	}
	u.release()
	if err != nil {
		// A terminal engine error fails every member the same way it would
		// have failed each one's own transaction.
		for i := range tasks {
			tasks[i].resp.Result = wire.ErrResult(err.Error())
		}
	}
	execEnd := obs.Now()
	m.stage[stExec][opc].Observe(execEnd - start)

	var syncNS int64
	if durErr == nil && len(u.appended) > 0 && s.dur.policy == wal.SyncGroup {
		// The unit logged records that must be fsynced before its writes
		// are acked (always synced inside Append; off defers durability to
		// rotation and shutdown by design). This is the one ack rule: the
		// ack daemon takes the write acks, so the executor never blocks on
		// the disk — unless the request must stay on its executor until its
		// outcome is settled and stored. That holds for a dedup-enveloped
		// request: its resend routes to this same executor and must find
		// the stored outcome, not run beside the original. A MULTI, whose
		// one response answers for every shard it logged to, waits for its
		// own barrier the same way.
		if !first.Dedup && first.Op != wire.OpMulti {
			s.dur.deferAcks(tasks, u.appended, opc, start, execEnd)
			return
		}
		durErr = s.dur.syncShards(u.appended)
		syncNS = obs.Now() - execEnd
		m.stage[stSync][opc].Observe(syncNS)
	}
	if durErr != nil {
		// Committed in memory but not durable: never acked.
		fail := s.dur.failResult(durErr)
		for i := range tasks {
			tasks[i].resp.Result, tasks[i].resp.Batch = fail, tasks[i].resp.Batch[:0]
		}
	}
	if first.Dedup && !replayed {
		s.dedup.store(first.ClientID, first.Seq, resp)
	}
	flushStart := execEnd + syncNS
	for i := range tasks {
		s.finish(&tasks[i], start, execEnd, syncNS, flushStart)
	}
	m.stage[stFlush][opc].Observe(obs.Now() - flushStart)
}

// finish hands one settled task's response to its connection's write loop,
// flight-records the request if it was slow end to end, recycles it and
// retires it. Executors call it for what they ack themselves, the ack
// daemon for deferred write acks. Tasks with no admission timestamp (tests
// and benchmarks driving an executor directly) skip the recorder.
func (s *Server) finish(t *task, start, execEnd, syncNS, flushStart int64) {
	m := s.m
	st := t.resp.Result.Status // the write loop owns resp after send
	t.c.send(t.resp)
	if m.slowNS > 0 && t.enq > 0 {
		end := obs.Now()
		if total := t.dec + (end - t.enq); total >= m.slowNS {
			kh, shard := s.flightKey(t.req)
			m.recordFlight(t.req.Op, kh, shard, st,
				t.dec, start-t.enq, execEnd-start, syncNS, end-flushStart, total)
		}
	}
	wire.ReleaseRequest(t.req)
	t.c.retire(t.wshard)
}
