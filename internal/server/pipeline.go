// The write pipeline (DESIGN.md §10): the one path every request that
// reaches an executor commits through.
//
// A unit is what one top-level transaction commits: the single-key commands
// an executor coalesced from its run queue — a solo request, dedup-enveloped
// or not, is a unit of one — or one MULTI batch. Both apply their commands
// in unit order inside one System.Atomic and submit no future; a MULTI adds
// only the all-or-nothing CAS rule. The sequence around the body is the same
// for all of them, durable or not:
//
//	plan     route every command to its shard; the candidate write shards
//	         are the shards of the commands that may write
//	lock     take the candidates' commit locks, ascending
//	commit   run the body as one System.Atomic
//	log      append one record: a part per candidate shard with effective
//	         writes, holding that shard's writes
//	unlock
//	ack      hand the responses to their connections' write loops; under
//	         policy group a response that reports a logged write (or
//	         replays a stored outcome) goes through the ack daemon, whose
//	         one fsync of the log is the barrier (durability.go)
//
// Holding a shard's commit lock across the STM commit AND the WAL append is
// what makes log order equal commit order per shard: no other commit for
// that shard can slip between the two. The store has one log, so a unit
// that wrote several shards is one record, durable whole or not at all.
// Fsyncs happen after unlock — they order nothing, they only make the
// already-ordered prefix durable. Every unit locks in ascending shard
// order, and the checkpointer holds one shard lock at a time, so nothing
// here can deadlock. This is the only place the argument has to be made,
// because it is the only place that locks.
//
// A memory-only server runs the same sequence with no log: the plan finds no
// shard that has one, so lock, log and unlock are loops over nothing.
//
// Only *effective* writes are logged: a PUT or a matched CAS logs a put, a
// DEL that removed a key logs a delete; reads, missed deletes and mismatched
// CASes contribute nothing (they performed no store write, so replay without
// them reproduces the committed state exactly). A failed append fails the
// whole unit — the in-memory commit may be ahead of the log at that
// instant, but no client was acked, and the WAL's sticky error keeps every
// later write failing until the operator replaces the disk. A failed
// barrier fails the acks of its cycle.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"wtftm"
	"wtftm/internal/mutant"
	"wtftm/internal/obs"
	"wtftm/internal/persist"
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

	groups [][]int // per candidate write shard: its commands that may write, in order
	shards []int   // candidate write shards, ascending (the lock order)
	batch  []byte  // one shard's batch encode buffer
	rec    []byte  // WAL record encode buffer: the unit's per-shard parts
}

func newUnit(s *Server) *unit {
	return &unit{srv: s, groups: make([][]int, s.cfg.Shards)}
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

// applyMulti is the body of a MULTI: the batch applies in unit order, as
// applySeq does, and then the all-or-nothing CAS rule decides it. The batch
// may span every shard, but it is one transaction that submits no future:
// each command is one to a few map operations, far less work than a future
// costs, and a body that runs its commands one after another leaves the
// engine no validation to do between them.
func (u *unit) applyMulti(tx *wtftm.Tx) error {
	u.applySeq(tx)
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
// file comment) with body as the transaction, leaving the results in u.res.
// err is the transaction's outcome (nothing was written or logged when it is
// non-nil); durErr is a failed append: committed in memory but not durable,
// so the unit must never be acked.
func (s *Server) commit(u *unit, body func(*wtftm.Tx) error) (err, durErr error) {
	if n := len(u.cmds); cap(u.res) < n {
		u.res = make([]wire.Result, n)
	} else {
		u.res = u.res[:n] // zeroed by release
	}
	for _, sh := range u.shards {
		u.groups[sh] = u.groups[sh][:0]
	}
	u.shards, u.cmdShard = u.shards[:0], u.cmdShard[:0]
	// d is nil on a memory-only server. This is the pipeline's only check
	// of it: without a log no shard becomes a candidate, and every later
	// stage walks the candidate list.
	d := s.dur
	for i, c := range u.cmds {
		sh := s.store.shardOf(c.Key)
		u.cmdShard = append(u.cmdShard, sh)
		if d != nil && canWrite(c.Op) {
			u.shards = insertShard(u.shards, sh)
			u.groups[sh] = append(u.groups[sh], i)
		}
	}

	for _, sh := range u.shards {
		d.mgr.Lock(sh)
	}
	err = s.sys.Atomic(body)
	if mutant.Active == mutant.UnlockBeforeLog {
		// A unit writing several shards (a MULTI) holds the gap open, so a
		// commit another executor makes on one of them meanwhile logs first.
		for _, sh := range u.shards {
			d.mgr.Unlock(sh)
		}
		if len(u.shards) > 1 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err == nil {
		// Only a committed transaction logs anything; an aborted one (CAS
		// mismatch, terminal engine error) wrote nothing.
		rec := u.rec[:0]
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
			batch := wal.AppendBatchHeader(u.batch[:0], n)
			for _, i := range u.groups[sh] {
				if effectiveWrite(u.cmds[i], u.res[i]) {
					batch = appendOp(batch, u.cmds[i])
				}
			}
			u.batch = batch
			rec = persist.AppendPart(rec, sh, batch)
		}
		u.rec = rec
		if len(rec) > 0 {
			_, durErr = d.mgr.AppendUnit(rec)
		}
	}
	if mutant.Active != mutant.UnlockBeforeLog {
		for _, sh := range u.shards {
			d.mgr.Unlock(sh)
		}
	}
	return err, durErr
}

// run executes one unit: the tasks an executor dequeued together (coalesced
// single-key commands, or exactly one request of any other kind). It
// acquires the responses, commits, stores an enveloped request's outcome
// and hands the responses out (ack); it never waits on the disk. Stage
// accounting is stated in metrics.go (unitClass).
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
	// it has committed and appended. Dedup'd requests never coalesce (see
	// coalescible), so the unit is this one request.
	replayed := first.Dedup && s.dedup.lookup(first.ClientID, first.Seq, resp)
	var err, durErr error
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
	if durErr != nil {
		// Committed in memory but not durable: never acked.
		fail := s.dur.failResult(durErr)
		for i := range tasks {
			tasks[i].resp.Result, tasks[i].resp.Batch = fail, tasks[i].resp.Batch[:0]
		}
	}
	if first.Dedup && !replayed {
		// The outcome settled when the unit committed and appended (the table
		// keeps no failure, so an append failure is never stored). A resend
		// queued behind this request on its executor finds it here; under
		// group its answer waits for a barrier that covers this record.
		s.dedup.store(first.ClientID, first.Seq, resp)
	}
	execEnd := obs.Now()
	m.stage[stExec][opc].Observe(execEnd - start)
	s.ack(tasks, replayed, opc, start, execEnd)
}

// ack hands a settled unit's responses out under the ack rule (DESIGN.md
// §10): under SyncGroup a response that acksAfterBarrier goes to the ack
// daemon, which sends it once the log is durable past everything appended
// before it; the executor sends everything else now. (Under always the
// append synced; off defers durability to rotation and shutdown by design.)
func (s *Server) ack(tasks []task, replayed bool, opc int, start, execEnd int64) {
	d := s.dur
	group := d != nil && d.policy == wal.SyncGroup
	var b *ackBatch
	for i := range tasks {
		t := &tasks[i]
		if !group || !acksAfterBarrier(t, replayed) {
			s.finish(t, start, execEnd, 0, execEnd)
			continue
		}
		if b == nil {
			b = d.ackPool.Get().(*ackBatch)
		}
		b.tasks = append(b.tasks, *t)
	}
	if b == nil {
		s.m.stage[stFlush][opc].Observe(obs.Now() - execEnd)
		return
	}
	b.opc, b.start, b.execEnd = opc, start, execEnd
	d.ackCh <- b
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
