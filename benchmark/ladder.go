package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wtftm/internal/client"
	"wtftm/internal/core"
	"wtftm/internal/mvstm"
	"wtftm/internal/obs"
	"wtftm/internal/persist"
	"wtftm/internal/server"
	"wtftm/internal/tstruct"
	"wtftm/internal/wal"
	"wtftm/internal/wire"
)

// The ladder replays the first ops of a workload's seeded stream from one
// goroutine through rungs that each reach one layer further, every call
// into a layer wrapped in a span. A layer's cost is read from its own
// spans' self time where it has spans, and from the difference between two
// rungs where it is what a rung adds around the calls below (core, server,
// client).
const (
	rungWire uint8 = iota
	rungSubstrate
	rungCore
	rungWal
	rungServer
	rungClient
	numRungs
)

var rungNames = []string{"wire", "mvstm+tstruct", "core", "wal+persist", "server", "client"}

// opClass splits the stream's ops the way the layers treat them.
type opClass int

const (
	clsGet opClass = iota
	clsPut
	clsMultiRead
	clsMultiWrite
	numClasses
)

var classNames = [numClasses]string{"GET", "PUT", "MULTI-read", "MULTI-write"}

func (w *workload) class(o op) opClass {
	switch {
	case w.groups > 0 && o.write():
		return clsMultiWrite
	case w.groups > 0:
		return clsMultiRead
	case o.write():
		return clsPut
	}
	return clsGet
}

// writeClass is the op class of the workload that passes through every
// layer, the one the "adds up" table is printed for.
func (w *workload) writeClass() opClass {
	if w.groups > 0 {
		return clsMultiWrite
	}
	return clsPut
}

// lstore is the ladder's stand-in for wtfd's keyspace: the same shape
// (shards × tstruct.Map of 64 buckets, values held as strings), built from
// public constructors and preloaded with the workload's keys.
type lstore struct {
	stm    *mvstm.STM
	shards []*tstruct.Map
}

const storeBuckets = 64 // wtfd's default -buckets

func newLStore(w *workload, ks *keyspace) *lstore {
	s := &lstore{stm: mvstm.New(), shards: make([]*tstruct.Map, w.shards)}
	per := make([][]tstruct.KV, w.shards)
	var val []byte
	for i, k := range ks.keys {
		if w.groups > 0 {
			val = appendToken(val[:0], i/w.groupKeys, 0, 0)
		} else {
			val = ks.appendValue(val[:0], i, 0)
		}
		sh := shardOf(k, w.shards)
		per[sh] = append(per[sh], tstruct.KV{Key: k, Val: string(val)})
	}
	for i := range s.shards {
		s.shards[i] = tstruct.NewMapNamed(s.stm, fmt.Sprintf("shard%d", i), storeBuckets)
		s.stm.Atomic(func(t *mvstm.Txn) error {
			s.shards[i].Restore(t, per[i])
			return nil
		})
	}
	return s
}

func (s *lstore) shard(key string) *tstruct.Map { return s.shards[shardOf(key, len(s.shards))] }

// ladder is one workload's traced replay.
type ladder struct {
	cfg *config
	w   *workload
	ks  *keyspace
	ops []op
	tr  *tracer

	rb    *reqBuilder
	seqs  []uint32 // per key, restarted for every rung so each replays the same writes
	token uint64
	kb    []byte
	val   []byte
	frame []byte

	done    [numRungs]int           // ops replayed per rung
	elapsed [numRungs]time.Duration // wall time per rung
	bytes   int64                   // rung wire: request + response frame bytes

	// what climb leaves for report
	light         *tracer       // the pass with one span per op
	plain, traced time.Duration // in-process rungs: that pass, and the fully traced one
	wal           walOut
	retries       int64
}

func newLadder(cfg *config, w *workload, ks *keyspace, ops []op) *ladder {
	return &ladder{cfg: cfg, w: w, ks: ks, ops: ops, rb: newReqBuilder(w, ks, 0)}
}

func (l *ladder) resetSeqs() {
	l.seqs = make([]uint32, len(l.ks.keys))
	l.token = 0
}

// nextSeq numbers the write op o carries in this rung.
func (l *ladder) nextSeq(o op) uint64 {
	if !o.write() {
		return 0
	}
	if l.w.groups > 0 {
		l.token++
		return l.token
	}
	l.seqs[o.index()]++
	return uint64(l.seqs[o.index()])
}

// txnGet reports whether GET number i takes the transactional path. wtfd
// serves a GET lock-free unless the connection has a write to the same
// shard in flight, then through its executor in a transaction; the ladder
// sends every eighth GET that way so both paths are measured on the same
// working set.
func txnGet(i int) bool { return i%8 == 7 }

// run replays one rung over the ops, stopping early when budget (> 0) runs
// out; step handles op i under the rung's op span.
func (l *ladder) run(rung uint8, budget time.Duration, step func(i int, o op, opSpan int32) error) error {
	l.resetSeqs()
	start := time.Now()
	for i, o := range l.ops {
		if budget > 0 && i&15 == 0 && time.Since(start) > budget {
			break
		}
		sp := l.tr.begin(spOp, rung, int32(i), -1)
		if err := step(i, o, sp); err != nil {
			return fmt.Errorf("ladder rung %s op %d: %w", rungNames[rung], i, err)
		}
		l.tr.end(sp)
		l.done[rung]++
	}
	l.elapsed[rung] = time.Since(start)
	return nil
}

// wireRung encodes and decodes each op's request and a response of the
// shape the server would send.
func (l *ladder) wireRung() error {
	var out []byte
	var dresp wire.Response
	return l.run(rungWire, 0, func(i int, o op, sp int32) error {
		req := l.rb.build(uint32(i), o, l.nextSeq(o))
		s := l.tr.begin(spWireEncodeReq, rungWire, int32(i), sp)
		var err error
		l.frame, err = appendFrame(l.frame[:0], req)
		l.tr.end(s)
		if err != nil {
			return err
		}
		dreq := wire.AcquireRequest()
		s = l.tr.begin(spWireDecodeReq, rungWire, int32(i), sp)
		err = wire.DecodeRequestInto(dreq, l.frame[4:])
		l.tr.end(s)
		if err != nil {
			return err
		}
		resp := wire.AcquireResponse()
		resp.ID, resp.Op, resp.Result = dreq.ID, dreq.Op, wire.OKResult()
		switch l.w.class(o) {
		case clsGet:
			l.val = l.ks.appendValue(l.val[:0], o.index(), 0)
			resp.SetVal(wire.StatusOK, l.val)
		case clsMultiRead:
			l.val = appendToken(l.val[:0], o.index(), 0, 0)
			for range dreq.Batch {
				resp.Batch = append(resp.Batch, wire.ValResult(l.val))
			}
		case clsMultiWrite:
			for range dreq.Batch {
				resp.Batch = append(resp.Batch, wire.OKResult())
			}
		}
		s = l.tr.begin(spWireEncodeResp, rungWire, int32(i), sp)
		out, err = wire.AppendResponse(out[:0], resp)
		l.tr.end(s)
		if err != nil {
			return err
		}
		s = l.tr.begin(spWireDecodeResp, rungWire, int32(i), sp)
		err = wire.DecodeResponseInto(&dresp, out)
		l.tr.end(s)
		wire.ReleaseRequest(dreq)
		wire.ReleaseResponse(resp)
		l.bytes += int64(len(l.frame) + len(out) + 4)
		return err
	})
}

// applyKeys runs the op's store accesses through rw, one tstruct span per
// key, and returns nothing: the ladder checks correctness nowhere, the
// served run does.
func (l *ladder) applyKeys(st *lstore, rw mvstm.ReadWriter, keys []string, write bool, val string, rung uint8, i int, parent int32) {
	for _, k := range keys {
		if write {
			s := l.tr.begin(spTstructPut, rung, int32(i), parent)
			st.shard(k).Put(rw, k, val)
			l.tr.end(s)
		} else {
			s := l.tr.begin(spTstructGet, rung, int32(i), parent)
			st.shard(k).Get(rw, k)
			l.tr.end(s)
		}
	}
}

// opKeys returns the keys op o touches and the value a write stores.
func (l *ladder) opKeys(o op, seq uint64) ([]string, string) {
	idx := o.index()
	if l.w.groups > 0 {
		if o.write() {
			l.val = appendToken(l.val[:0], idx, 0, seq)
		}
		return l.ks.keys[idx*l.w.groupKeys : (idx+1)*l.w.groupKeys], string(l.val)
	}
	if o.write() {
		l.val = l.ks.appendValue(l.val[:0], idx, uint32(seq))
		return l.ks.keys[idx : idx+1], string(l.val)
	}
	return l.ks.keys[idx : idx+1], ""
}

// fastGet is the lock-free read, as wtfd's connection loop does it.
func (l *ladder) fastGet(st *lstore, key string, rung uint8, i int, parent int32) {
	l.kb = append(l.kb[:0], key...)
	s := l.tr.begin(spTstructGetFast, rung, int32(i), parent)
	st.shard(key).GetFastBytes(l.kb)
	l.tr.end(s)
}

// substrateRung applies each op to the store under a plain MV-STM
// transaction.
func (l *ladder) substrateRung(st *lstore) error {
	return l.run(rungSubstrate, 0, func(i int, o op, sp int32) error {
		keys, val := l.opKeys(o, l.nextSeq(o))
		if l.w.class(o) == clsGet && !txnGet(i) {
			l.fastGet(st, keys[0], rungSubstrate, i, sp)
			return nil
		}
		s := l.tr.begin(spMvstmTxn, rungSubstrate, int32(i), sp)
		err := st.stm.Atomic(func(t *mvstm.Txn) error {
			l.applyKeys(st, t, keys, o.write(), val, rungSubstrate, i, s)
			return nil
		})
		l.tr.end(s)
		return err
	})
}

// coreRung applies each op through the futures engine the way wtfd's
// executors do: one top-level transaction per op, and for a MULTI one
// future per shard the batch touches.
func (l *ladder) coreRung(st *lstore) error {
	sys := core.New(st.stm, core.Options{Ordering: core.WO, Atomicity: core.LAC})
	var futs []*core.Future
	groups := make([][]string, len(st.shards))
	var order []int
	return l.run(rungCore, 0, func(i int, o op, sp int32) error {
		keys, val := l.opKeys(o, l.nextSeq(o))
		if l.w.class(o) == clsGet && !txnGet(i) {
			l.fastGet(st, keys[0], rungCore, i, sp)
			return nil
		}
		s := l.tr.begin(spCoreAtomic, rungCore, int32(i), sp)
		err := sys.Atomic(func(tx *core.Tx) error {
			if len(keys) == 1 {
				l.applyKeys(st, tx, keys, o.write(), val, rungCore, i, s)
				return nil
			}
			order = order[:0]
			for _, k := range keys {
				sh := shardOf(k, len(st.shards))
				if len(groups[sh]) == 0 {
					order = append(order, sh)
				}
				groups[sh] = append(groups[sh], k)
			}
			futs = futs[:0]
			for _, sh := range order {
				gk := groups[sh]
				b := l.tr.begin(spCoreSubmit, rungCore, int32(i), s)
				f := tx.Submit(func(ftx *core.Tx) (any, error) {
					fs := l.tr.begin(spCoreFuture, rungCore, int32(i), s)
					l.applyKeys(st, ftx, gk, o.write(), val, rungCore, i, fs)
					l.tr.end(fs)
					return nil, nil
				})
				l.tr.end(b)
				futs = append(futs, f)
			}
			var err error
			for _, f := range futs {
				e := l.tr.begin(spCoreEvaluate, rungCore, int32(i), s)
				_, ferr := tx.Evaluate(f)
				l.tr.end(e)
				if ferr != nil && err == nil {
					err = ferr
				}
			}
			for _, sh := range order {
				groups[sh] = groups[sh][:0]
			}
			return err
		})
		l.tr.end(s)
		return err
	})
}

// walAloneAppends is how many appends time wal.Log.Append on its own.
const walAloneAppends = 2000

// walOut is what the wal+persist rung measured outside its spans.
type walOut struct {
	appendNS     float64 // wal.Log.Append alone, per-call median
	checkpointMS float64 // persist.Manager.Checkpoint, median over shards
	checkpoints  int
}

// walRung logs each write op the way wtfd's durable path does — encode a
// batch of one, append it under the shard's commit lock, run the group
// barrier — against a real directory.
func (l *ladder) walRung(st *lstore, dir string) (walOut, error) {
	var out walOut
	source := func(shard int, emit func(key string, val []byte) error) error {
		var kvs []tstruct.KV
		st.stm.Atomic(func(t *mvstm.Txn) error {
			kvs = st.shards[shard].Snapshot(t, kvs[:0])
			return nil
		})
		for _, kv := range kvs {
			if err := emit(kv.Key, []byte(kv.Val.(string))); err != nil {
				return err
			}
		}
		return nil
	}
	mgr, err := persist.Open(persist.Options{
		Dir: filepath.Join(dir, "persist"), Shards: len(st.shards), Sync: wal.SyncGroup,
		Source:  source,
		Restore: func(int, string, []byte) error { return nil },
		Apply:   func(int, uint64, []byte) error { return nil },
	})
	if err != nil {
		return out, err
	}
	defer mgr.Close()
	var buf []byte
	err = l.run(rungWal, l.cfg.rungBudget, func(i int, o op, sp int32) error {
		keys, val := l.opKeys(o, l.nextSeq(o))
		if !o.write() {
			return nil
		}
		for _, k := range keys {
			sh := shardOf(k, len(st.shards))
			s := l.tr.begin(spWalEncode, rungWal, int32(i), sp)
			buf = wal.AppendBatchHeader(buf[:0], 1)
			buf = wal.AppendPut(buf, k, []byte(val))
			l.tr.end(s)
			s = l.tr.begin(spPersistAppend, rungWal, int32(i), sp)
			mgr.Lock(sh)
			_, err := mgr.Append(sh, buf)
			mgr.Unlock(sh)
			l.tr.end(s)
			if err != nil {
				return err
			}
			s = l.tr.begin(spWalSync, rungWal, int32(i), sp)
			err = mgr.Sync(sh)
			l.tr.end(s)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}

	// persist.Manager.Append is wal.Log.Append plus the checkpoint
	// bookkeeping; time the log alone on a payload of the same size to
	// split the two.
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal-alone"), Sync: wal.SyncGroup})
	if err != nil {
		return out, err
	}
	defer log.Close()
	payload := wal.AppendPut(wal.AppendBatchHeader(nil, 1), l.ks.keys[0], make([]byte, l.w.valLen))
	samples := make([]float64, 0, walAloneAppends)
	for i := 0; i < walAloneAppends; i++ {
		t0 := now()
		if _, err := log.Append(payload); err != nil {
			return out, err
		}
		samples = append(samples, float64(now()-t0))
	}
	out.appendNS = median(samples)

	var cps []float64
	for sh := range st.shards {
		t0 := now()
		if err := mgr.Checkpoint(sh); err != nil {
			return out, err
		}
		cps = append(cps, float64(now()-t0)/1e6)
	}
	out.checkpointMS, out.checkpoints = median(cps), len(cps)
	return out, nil
}

// inProcessServer starts wtfd's server package on loopback with the
// workload's flags, preloaded.
func (l *ladder) inProcessServer(dir string) (*server.Server, string, error) {
	c := server.Config{Ordering: core.WO}
	if l.w.durable {
		c.DataDir, c.Fsync, c.SnapshotEvery = filepath.Join(dir, "server-data"), wal.SyncGroup, 1024
	}
	srv, err := server.New(c)
	if err != nil {
		return nil, "", err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		srv.Drain()
		return nil, "", err
	}
	addr := srv.Addr().String()
	if _, err := preload(l.w, l.ks, addr); err != nil {
		srv.Drain()
		return nil, "", err
	}
	return srv, addr, nil
}

// serverRung is a depth-1 raw-wire round trip per op against addr.
func (l *ladder) serverRung(addr string) error {
	c, err := dialRaw(addr)
	if err != nil {
		return err
	}
	defer c.close()
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Minute))
	var resp wire.Response
	return l.run(rungServer, l.cfg.rungBudget, func(i int, o op, sp int32) error {
		req := l.rb.build(uint32(i), o, l.nextSeq(o))
		s := l.tr.begin(spWireEncodeReq, rungServer, int32(i), sp)
		err := c.send(req)
		l.tr.end(s)
		if err != nil {
			return err
		}
		s = l.tr.begin(spServerWait, rungServer, int32(i), sp)
		var payload []byte
		if err = c.flush(); err == nil {
			payload, err = wire.ReadFrame(c.br, c.rbuf)
		}
		l.tr.end(s)
		if err != nil {
			return err
		}
		c.rbuf = payload[:0]
		s = l.tr.begin(spWireDecodeResp, rungServer, int32(i), sp)
		err = wire.DecodeResponseInto(&resp, payload)
		l.tr.end(s)
		if err == nil && resp.Result.Status != wire.StatusOK {
			err = fmt.Errorf("%v answered %v", resp.Op, resp.Result.Status)
		}
		return err
	})
}

// clientRung is the same round trip through internal/client.
func (l *ladder) clientRung(addr string) (retries int64, err error) {
	cl := client.New(client.Options{Addr: addr, Conns: 1})
	defer cl.Close()
	var dst []byte
	var cmds []wire.Cmd
	err = l.run(rungClient, l.cfg.rungBudget, func(i int, o op, sp int32) error {
		keys, val := l.opKeys(o, l.nextSeq(o))
		cmds = cmds[:0]
		if len(keys) > 1 {
			for _, k := range keys {
				if o.write() {
					cmds = append(cmds, wire.Put(k, []byte(val)))
				} else {
					cmds = append(cmds, wire.Get(k))
				}
			}
		}
		s := l.tr.begin(spClientCall, rungClient, int32(i), sp)
		var err error
		switch {
		case len(keys) > 1:
			_, _, err = cl.Multi(cmds)
		case o.write():
			err = cl.Put(keys[0], val)
		default:
			dst, _, err = cl.GetBytes(keys[0], dst[:0])
		}
		l.tr.end(s)
		return err
	})
	m := cl.Metrics()
	return m.Retries + m.BusyRetries, err
}

// batchMedianNS times fn in batches (a single call is shorter than the
// clock's own cost) and returns the median per-call time.
func batchMedianNS(batches, per int, fn func()) float64 {
	samples := make([]float64, batches)
	for b := range samples {
		t0 := now()
		for i := 0; i < per; i++ {
			fn()
		}
		samples[b] = float64(now()-t0) / float64(per)
	}
	return median(samples)
}

// primitives times the two layer calls too short for a span each.
func primitives(res *runResult) {
	stm := mvstm.New()
	box := stm.NewBox("v")
	res.set("mvstm.readlatest_ns", batchMedianNS(1001, 64, func() { stm.ReadLatest(box) }), "ns", 1001*64)
	h := obs.NewHistogram(1)
	v := int64(0)
	res.set("obs.observe_ns", batchMedianNS(1001, 64, func() { v += 977; h.Observe(v & 0xfffff) }), "ns", 1001*64)
}

// spanStats groups span durations and self times by rung, name and op
// class.
type spanStats struct {
	spans   []span
	self    []int64
	classOf func(op int32) opClass
}

func (ss *spanStats) collect(rung uint8, name spanName, cls opClass, self bool) []float64 {
	var out []float64
	for i := range ss.spans {
		s := &ss.spans[i]
		if s.rung != rung || s.name != name {
			continue
		}
		if cls >= 0 && ss.classOf(s.op) != cls {
			continue
		}
		if self {
			out = append(out, float64(ss.self[i]))
		} else {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

const anyClass opClass = -1

// med sets metric name to the median of vs (scaled) when there are any.
func med(res *runResult, name string, vs []float64, scale float64, unit string) {
	if len(vs) > 0 {
		res.set(name, median(vs)*scale, unit, int64(len(vs)))
	}
}

// servedLadder runs the traced ladder of a served workload and adds the
// per-layer metrics it yields to res. dataDir, when not empty, is the data
// directory the served run left behind (persist.open_ms reads it).
func servedLadder(cfg *config, w *workload, ks *keyspace, ops []op, res *runResult, dataDir string) error {
	dir := filepath.Join(cfg.outDir, "tmp", fmt.Sprintf("ladder-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l := newLadder(cfg, w, ks, ops)
	if err := l.climb(dir); err != nil {
		return err
	}
	return l.report(res, dataDir)
}

// climb runs the rungs. The in-process ones run three times, each on a
// fresh store: once to warm heap and caches, once with a span around each
// op only, once with every layer call in a span. The second pass gives the
// rungs' per-op times, the third the layers' self times, and their ratio is
// what tracing costs. The rungs that wait for network or disk run once,
// fully traced: a handful of spans is nothing next to a round trip.
func (l *ladder) climb(dir string) error {
	cpuRungs := func(tr *tracer) (time.Duration, *lstore, error) {
		l.tr, l.done, l.bytes = tr, [numRungs]int{}, 0
		st := newLStore(l.w, l.ks)
		if err := l.wireRung(); err != nil {
			return 0, nil, err
		}
		if err := l.substrateRung(st); err != nil {
			return 0, nil, err
		}
		if err := l.coreRung(st); err != nil {
			return 0, nil, err
		}
		return l.elapsed[rungWire] + l.elapsed[rungSubstrate] + l.elapsed[rungCore], st, nil
	}
	if _, _, err := cpuRungs(nil); err != nil {
		return err
	}
	var err error
	l.light = newTracer(3*len(l.ops)+1024, true)
	if l.plain, _, err = cpuRungs(l.light); err != nil {
		return err
	}
	var st *lstore
	if l.traced, st, err = cpuRungs(newTracer(len(l.ops)*spansPerOp(l.w)+1024, false)); err != nil {
		return err
	}
	if l.w.durable {
		if l.wal, err = l.walRung(st, dir); err != nil {
			return err
		}
	}
	srv, addr, err := l.inProcessServer(dir)
	if err != nil {
		return err
	}
	defer srv.Drain()
	if err := l.serverRung(addr); err != nil {
		return err
	}
	l.retries, err = l.clientRung(addr)
	return err
}

// report writes the span file and turns the spans into per-layer metrics
// and the per-class table.
func (l *ladder) report(res *runResult, dataDir string) error {
	w, spans := l.w, l.tr.recorded()
	if d := l.tr.dropped.Load(); d > 0 {
		res.note("ladder: %d spans dropped (tracer full)", d)
	}
	tracePath := filepath.Join(l.cfg.outDir, "trace-"+w.name+".json")
	if err := writeTrace(tracePath, rungNames, spans); err != nil {
		return err
	}
	res.note("ladder: %d spans written to %s", len(spans), tracePath)
	classOf := func(op int32) opClass { return w.class(l.ops[op]) }
	ss := &spanStats{spans: spans, self: selfTimes(spans), classOf: classOf}
	perOp := &spanStats{spans: l.light.recorded(), classOf: classOf}
	durs := func(rung uint8, name spanName) []float64 { return ss.collect(rung, name, anyClass, false) }

	n := float64(l.done[rungWire])
	res.set("trace.overhead_ratio", float64(l.traced-l.plain)/float64(l.plain), "ratio", int64(n))
	res.note("ladder in-process rungs (wire, mvstm+tstruct, core), %d ops each: %.0f ops/s with one span per op, %.0f ops/s with every layer call in a span",
		l.done[rungWire], 3*n/l.plain.Seconds(), 3*n/l.traced.Seconds())

	med(res, "wire.encode_req_ns", durs(rungWire, spWireEncodeReq), 1, "ns")
	med(res, "wire.decode_req_ns", durs(rungWire, spWireDecodeReq), 1, "ns")
	med(res, "wire.encode_resp_ns", durs(rungWire, spWireEncodeResp), 1, "ns")
	med(res, "wire.decode_resp_ns", durs(rungWire, spWireDecodeResp), 1, "ns")
	res.set("wire.bytes_per_op", float64(l.bytes)/n, "bytes", int64(n))

	med(res, "tstruct.get_ns", durs(rungSubstrate, spTstructGet), 1, "ns")
	med(res, "tstruct.getfast_ns", durs(rungSubstrate, spTstructGetFast), 1, "ns")
	med(res, "tstruct.put_ns", durs(rungSubstrate, spTstructPut), 1, "ns")
	res.set("tstruct.entries_per_bucket", float64(len(l.ks.keys))/float64(w.shards*storeBuckets), "count", int64(len(l.ks.keys)))
	med(res, "mvstm.txn_self_ns", ss.collect(rungSubstrate, spMvstmTxn, anyClass, true), 1, "ns")

	// core.atomic_self_ns: System.Atomic against stm.Atomic around the same
	// single-box write. Defined only where the stream has single-key PUTs.
	coreSelf := 0.0
	if a, t := ss.collect(rungCore, spCoreAtomic, clsPut, false), ss.collect(rungSubstrate, spMvstmTxn, clsPut, false); len(a) > 0 && len(t) > 0 {
		coreSelf = median(a) - median(t)
		res.set("core.atomic_self_ns", coreSelf, "ns", int64(len(a)))
	}
	// core.submit_evaluate_ns: Submit plus Evaluate per future. Futures are
	// evaluated in submission order, so the k-th of each belong together.
	if sub, ev := durs(rungCore, spCoreSubmit), durs(rungCore, spCoreEvaluate); len(sub) > 0 && len(sub) == len(ev) {
		for i := range sub {
			sub[i] += ev[i]
		}
		med(res, "core.submit_evaluate_ns", sub, 1, "ns")
	}

	if w.durable {
		med(res, "wal.encode_ns", durs(rungWal, spWalEncode), 1, "ns")
		med(res, "wal.sync_us", durs(rungWal, spWalSync), 1e-3, "us")
		res.set("wal.append_ns", l.wal.appendNS, "ns", walAloneAppends)
		if pa := durs(rungWal, spPersistAppend); len(pa) > 0 {
			res.set("persist.append_self_ns", median(pa)-l.wal.appendNS, "ns", int64(len(pa)))
		}
		res.set("persist.checkpoint_ms", l.wal.checkpointMS, "ms", int64(l.wal.checkpoints))
		if dataDir != "" {
			if ms, err := persistOpenMS(dataDir, w.shards); err != nil {
				res.note("persist.open_ms: %v", err)
			} else {
				res.set("persist.open_ms", ms, "ms", 1)
			}
		}
	}
	res.set("client.retries", float64(l.retries), "count", int64(l.done[rungClient]))

	// The "adds up" table, per op class: the round trip of the server rung
	// split into the layers below it, server.self_us being what is left.
	us := func(rung uint8, cls opClass) (float64, int) {
		from := ss
		if rung <= rungCore {
			from = perOp
		}
		vs := from.collect(rung, spOp, cls, false)
		if len(vs) == 0 {
			return 0, 0
		}
		return median(vs) / 1e3, len(vs)
	}
	fmt.Fprintf(&res.tables, "\n  ladder, depth-1 medians per op class (us); server.self = server − wire − core − wal+persist; client.self = client − server\n")
	fmt.Fprintf(&res.tables, "  %-12s %8s %8s %10s %8s %8s %12s %10s %12s %10s\n", "class", "ops", "wire", "substrate", "core", "wal", "server.self", "server", "client.self", "client")
	for cls := opClass(0); cls < numClasses; cls++ {
		wireUS, cnt := us(rungWire, cls)
		if cnt == 0 {
			continue
		}
		subUS, _ := us(rungSubstrate, cls)
		coreUS, _ := us(rungCore, cls)
		walUS, _ := us(rungWal, cls)
		srvUS, srvN := us(rungServer, cls)
		cliUS, cliN := us(rungClient, cls)
		self := srvUS - wireUS - coreUS - walUS
		fmt.Fprintf(&res.tables, "  %-12s %8d %8.2f %10.2f %8.2f %8.2f %12.2f %10.2f %12.2f %10.2f\n",
			classNames[cls], srvN, wireUS, subUS, coreUS, walUS, self, srvUS, cliUS-srvUS, cliUS)
		if cls != w.writeClass() || srvN == 0 {
			continue
		}
		res.set("server.self_us", self, "us", int64(srvN))
		if cliN > 0 {
			res.set("client.roundtrip_self_us", cliUS-srvUS, "us", int64(cliN))
		}
		if cls == clsPut {
			tput := median(ss.collect(rungSubstrate, spTstructPut, clsPut, false))
			tself := median(ss.collect(rungSubstrate, spMvstmTxn, clsPut, true))
			fmt.Fprintf(&res.tables, "  PUT round trip %.2f us = wire %.2f + tstruct %.2f + mvstm %.2f + core %.2f + wal+persist %.2f + server.self %.2f (residual) + %.2f unattributed inside the core rung\n",
				srvUS, wireUS, tput/1e3, tself/1e3, coreSelf/1e3, walUS, self, coreUS-(tput+tself+coreSelf)/1e3)
		}
	}
	for r := uint8(0); r < numRungs; r++ {
		if l.done[r] > 0 {
			res.note("ladder rung %-13s %6d ops in %8.1f ms", rungNames[r], l.done[r], float64(l.elapsed[r].Microseconds())/1e3)
		}
	}
	return nil
}

// spansPerOp bounds the spans one op records over all rungs.
func spansPerOp(w *workload) int {
	if w.groups > 0 {
		return 16 + 8*w.groupKeys
	}
	return 24
}

// persistOpenMS times persist.Open — snapshot restore plus log replay — on
// a data directory a served run left.
func persistOpenMS(dir string, shards int) (float64, error) {
	state := map[string]string{}
	t0 := now()
	mgr, err := persist.Open(persist.Options{
		Dir: dir, Shards: shards, Sync: wal.SyncGroup,
		Source:  func(int, func(string, []byte) error) error { return nil },
		Restore: func(_ int, k string, v []byte) error { state[k] = string(v); return nil },
		Apply: func(_ int, _ uint64, payload []byte) error {
			return wal.DecodeBatch(payload, func(op wal.Op) error {
				state[op.Key] = string(op.Val)
				return nil
			})
		},
	})
	if err != nil {
		return 0, err
	}
	ms := float64(now()-t0) / 1e6
	return ms, mgr.Close()
}
