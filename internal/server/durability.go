// Durability wiring for wtfd (DESIGN.md §11): the server's handle on
// persist.Manager — boot recovery, the checkpointer's snapshot source, the
// fsync barrier and the ack daemon that batches it.
//
// The one invariant everything here serves: a client is acknowledged only
// after its write satisfies the configured sync policy, and the WAL's record
// order equals the STM's commit order per shard. The second half belongs to
// the write pipeline (pipeline.go), which is the only code that takes the
// per-shard commit locks and the only code that appends; this file owns the
// first half — acksAfterBarrier is the ack rule's predicate, and sync, the
// one fsync barrier, runs only in the ack daemon — plus what surrounds
// serving: opening the data directory, replaying it, feeding checkpoints
// and reporting WAL statistics.
package server

import (
	"sync"
	"sync/atomic"
	"time"

	"wtftm"
	"wtftm/internal/mutant"
	"wtftm/internal/obs"
	"wtftm/internal/persist"
	"wtftm/internal/tstruct"
	"wtftm/internal/wal"
	"wtftm/internal/wire"
)

// durability is the server's handle on the persistence layer; nil on a
// memory-only server.
//
// Under SyncGroup the fsync barrier is asynchronous: an executor that
// commits a unit appends its record, acks what needs no barrier at once
// and hands the rest to the ack daemon instead of fsyncing itself — it
// never blocks on the disk, so work queued behind a write unit is not
// stalled for its barrier. The single ack daemon drains everything
// enqueued, fsyncs the store's one log once, releases all the acks at once,
// and immediately starts over on whatever arrived meanwhile. The batch per
// fsync therefore grows with load — the classic group-commit self-clock:
// while one fsync is in flight the next batch accumulates — and one global
// daemon over one log keeps the arrival stream undivided, so a cycle costs
// one fsync however many shards its units wrote. No client is ever acked
// before its record is durable, exactly as if the barrier were inline.
type durability struct {
	mgr    *persist.Manager
	policy wal.SyncPolicy
	srv    *Server // backref for metrics (srv.m) and the flight recorder

	ackCh chan *ackBatch // non-nil only under SyncGroup
	ackWG sync.WaitGroup

	batchOpsHWM    atomic.Int64
	appendFailures atomic.Int64

	ackPool sync.Pool // *ackBatch
}

// ackBatch is one unit's deferred responses, which may go out once the log
// is durable past everything appended before the unit handed them over.
type ackBatch struct {
	tasks []task
	// The unit's stage class and its exec span, so the daemon can account
	// the sync and flush stages (and flight-record slow members) the way
	// the executor would have: sync = fsync done − execEnd.
	opc            int
	start, execEnd int64
}

// acksAfterBarrier is the ack rule's one predicate: a settled response
// waits for the barrier if it reports a write its unit logged (a PUT, a
// matched CAS, a DEL that removed a key, an OK MULTI holding any of those),
// or if it replays a stored outcome, which was stored at commit, before
// the original's barrier. Reads depend on the commit, not the disk.
func acksAfterBarrier(t *task, replayed bool) bool {
	switch {
	case replayed:
		return mutant.Active != mutant.ReplayBeforeBarrier
	case t.req.Op != wire.OpMulti:
		return effectiveWrite(&t.req.Cmd, t.resp.Result)
	case t.resp.Result.Status == wire.StatusOK:
		for i := range t.req.Batch {
			if effectiveWrite(&t.req.Batch[i], t.resp.Batch[i]) {
				return true
			}
		}
	}
	return false
}

// commitDelay is how long the ack daemon waits after the first deferred
// ack for more commits to share its fsync cycle, unless nothing can join it
// (nothingCanJoin). The window is pure added write latency traded for fsync
// amortization: on the ack path an fsync costs real CPU, so at high write
// rates the window is what keeps the disk barrier from eating the machine.
// Reads and the executors never wait on it.
const commitDelay = time.Millisecond

// nothingCanJoin reports that a cycle holding n acks gains nothing by
// waiting: every admitted request is in it (Server.inflight) and every read
// loop is parked on its socket (Server.reading), so no request the server
// has read is on its way to an executor. A lone write, or a client whose
// whole pipeline waits on these acks, is then fsynced at once.
func (d *durability) nothingCanJoin(n int) bool {
	s := d.srv
	return s.inflight.Load() <= int64(n) && s.reading.Load() == 0
}

// maxAckOps caps how many deferred write acks one fsync cycle may cover:
// under overload the daemon flushes at the cap instead of letting the
// commit-delay window grow the batch (and every ack's latency) unboundedly.
const maxAckOps = 256

// ackLoop is the group-commit daemon: collect what the commit-delay window
// accumulates, fsync the log, release the acks, repeat. It is the only code
// that waits on the barrier.
func (d *durability) ackLoop() {
	defer d.ackWG.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var batch []*ackBatch
	for first := range d.ackCh {
		batch = append(batch[:0], first)
		n := len(first.tasks)
		// Hold the barrier open: commits landing inside the window share this
		// cycle's fsync instead of paying for their own.
		timer.Reset(commitDelay)
	wait:
		for n < maxAckOps && !d.nothingCanJoin(n) {
			select {
			case b, ok := <-d.ackCh:
				if !ok {
					break wait
				}
				batch = append(batch, b)
				n += len(b.tasks)
			case <-timer.C:
				break wait
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		// Sweep whatever else is already queued — it costs nothing.
		for more := n < maxAckOps; more; {
			select {
			case b, ok := <-d.ackCh:
				if !ok {
					more = false
				} else {
					batch = append(batch, b)
					n += len(b.tasks)
					more = n < maxAckOps
				}
			default:
				more = false
			}
		}
		err := d.sync()
		var failRes wire.Result
		if err != nil {
			failRes = d.failResult(err)
		}
		// A deferred unit's sync stage is its whole hand-off→durable wait
		// (the commit-delay window plus the shared fsync), and its flush
		// stage the hand-off of its acks, under the unit's own class
		// (unitClass in metrics.go).
		m := d.srv.m
		synced := obs.Now()
		flushStart := synced
		for _, b := range batch {
			syncNS := synced - b.execEnd
			m.stage[stSync][b.opc].Observe(syncNS)
			for i := range b.tasks {
				t := &b.tasks[i]
				if err != nil {
					t.resp.Result = failRes
				}
				d.srv.finish(t, b.start, b.execEnd, syncNS, flushStart)
			}
			now := obs.Now()
			m.stage[stFlush][b.opc].Observe(now - flushStart)
			flushStart = now
			clear(b.tasks)
			b.tasks = b.tasks[:0]
			d.ackPool.Put(b)
		}
		clear(batch)
	}
}

// close stops the ack daemon (executors are already quiescent, so nothing
// new can arrive; queued acks are still synced and delivered) and shuts the
// persistence layer down.
func (d *durability) close() error {
	if d.ackCh != nil {
		close(d.ackCh)
		d.ackWG.Wait()
	}
	return d.mgr.Close()
}

// insertShard inserts sh into an ascending unique shard list.
func insertShard(list []int, sh int) []int {
	i := 0
	for ; i < len(list); i++ {
		if list[i] == sh {
			return list
		}
		if list[i] > sh {
			break
		}
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = sh
	return list
}

// newDurability opens the data directory, recovers the store (snapshot
// restore + WAL replay through the recoverer's batched transactions) and
// returns the serving-path handle. Called from New before any traffic.
func newDurability(s *Server, cfg Config) (*durability, error) {
	d := &durability{policy: cfg.Fsync, srv: s}
	d.ackPool.New = func() any { return new(ackBatch) }
	rec := &recoverer{s: s}
	snapEvery := cfg.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 1 << 16
	} else if snapEvery < 0 {
		snapEvery = 0 // explicit "never checkpoint"
	}
	mgr, err := persist.Open(persist.Options{
		FS:            cfg.FS,
		Dir:           cfg.DataDir,
		Shards:        cfg.Shards,
		Sync:          cfg.Fsync,
		SegmentBytes:  cfg.SegmentBytes,
		SnapshotEvery: snapEvery,
		Source:        s.snapshotSource,
		Restore:       rec.restore,
		Apply:         rec.apply,
	})
	if err != nil {
		return nil, err
	}
	if err := rec.flush(); err != nil {
		mgr.Close()
		return nil, err
	}
	d.mgr = mgr
	if cfg.Fsync == wal.SyncGroup {
		d.ackCh = make(chan *ackBatch, 4*cfg.Shards)
		d.ackWG.Add(1)
		go d.ackLoop()
	}
	return d, nil
}

// recoverer batches snapshot-entry restores into bulk transactions (one
// Map.Restore per 1024 entries instead of one commit per entry). Apply
// flushes first, so replayed records always see the restored prefix.
type recoverer struct {
	s       *Server
	shard   int
	pending []tstruct.KV
}

func (r *recoverer) restore(shard int, key string, val []byte) error {
	if shard != r.shard {
		if err := r.flush(); err != nil {
			return err
		}
		r.shard = shard
	}
	r.pending = append(r.pending, tstruct.KV{Key: key, Val: string(val)})
	if len(r.pending) >= 1024 {
		return r.flush()
	}
	return nil
}

func (r *recoverer) flush() error {
	if len(r.pending) == 0 {
		return nil
	}
	m := r.s.store.shards[r.shard]
	kvs := r.pending
	err := r.s.sys.Atomic(func(tx *wtftm.Tx) error {
		m.Restore(tx, kvs)
		return nil
	})
	r.pending = r.pending[:0]
	return err
}

func (r *recoverer) apply(shard int, seq uint64, payload []byte) error {
	if err := r.flush(); err != nil {
		return err
	}
	m := r.s.store.shards[shard]
	return r.s.sys.Atomic(func(tx *wtftm.Tx) error {
		return wal.DecodeBatch(payload, func(op wal.Op) error {
			switch op.Kind {
			case wal.OpPut:
				m.Put(tx, op.Key, string(op.Val))
			case wal.OpDel:
				m.Delete(tx, op.Key)
			}
			return nil
		})
	})
}

// snapshotSource feeds a shard's consistent entry set to the checkpointer
// (persist calls it with the shard's commit lock held, so the snapshot read
// transaction sees exactly the state the log frontier describes).
func (s *Server) snapshotSource(shard int, emit func(key string, val []byte) error) error {
	var kvs []tstruct.KV
	err := s.sys.Atomic(func(tx *wtftm.Tx) error {
		kvs = s.store.shards[shard].Snapshot(tx, kvs[:0])
		return nil
	})
	if err != nil {
		return err
	}
	for _, kv := range kvs {
		if err := emit(kv.Key, []byte(kv.Val.(string))); err != nil {
			return err
		}
	}
	return nil
}

// sync is the one fsync barrier, run only by the ack daemon: every shard
// appends to the one log, so a single coalescing Sync (wal.Log.Sync) makes
// every record appended before it durable, whatever shards the records
// wrote.
func (d *durability) sync() error {
	t0 := obs.Now()
	err := d.mgr.Sync(0)
	d.srv.m.fsyncLat.Observe(obs.Now() - t0)
	return err
}

// failResult counts and formats a never-acked durability failure.
func (d *durability) failResult(err error) wire.Result {
	d.appendFailures.Add(1)
	return wire.ErrResult("server: write not durable: " + err.Error())
}

// walStats assembles the STATS durability section.
func (d *durability) walStats(cfg *Config, nowUnixNano int64) *wire.WALStats {
	ps := d.mgr.Stats()
	age := int64(-1)
	if ps.LastSnapshotUnixNano > 0 {
		age = (nowUnixNano - ps.LastSnapshotUnixNano) / 1e6
	}
	return &wire.WALStats{
		Fsync:             d.policy.String(),
		DataDir:           cfg.DataDir,
		AppendedRecords:   ps.AppendedRecords,
		AppendedBytes:     ps.AppendedBytes,
		Fsyncs:            ps.Fsyncs,
		Segments:          ps.Segments,
		RemovedSegments:   ps.RemovedSegments,
		TruncatedBytes:    ps.TruncatedBytes,
		BatchOpsHWM:       d.batchOpsHWM.Load(),
		AppendFailures:    d.appendFailures.Load(),
		Snapshots:         ps.Snapshots,
		SnapshotErrors:    ps.SnapshotErrors,
		LastSnapshotSeq:   ps.LastSnapshotSeq,
		LastSnapshotAgeMS: age,
		RecoveredRecords:  ps.RecoveredRecords,
	}
}
