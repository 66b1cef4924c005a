// The chaos workload runner.
//
// The workload drives a real wtfd server through fault-injected clients and
// records what each of them saw as a History; Check (check.go) then says
// whether the server lied to anyone. The shape of the traffic is what makes
// that judgment possible without a log: each worker owns a disjoint set of
// counter keys, to which it writes strictly increasing values, and one CAS
// key it advances with the expectation it last learned. Every key therefore
// has a single writer, whose program order is the key's version order, and
// every written value is unique. Each worker ends with a read of everything
// it owns over a clean connection, so a write it was acked for and that did
// not stick shows up in its own session.
//
// Errors are expected (chaos guarantees plenty): an operation that fails is
// recorded as ambiguous, and the checker accepts either of its outcomes. A
// wrong answer is never tolerated.
package chaos

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"wtftm/internal/client"
	"wtftm/internal/wire"
)

// WorkloadConfig parameterizes one chaos workload run.
type WorkloadConfig struct {
	// Addr is the wtfd server address.
	Addr string
	// Dial, when non-nil, replaces the workers' dialer (the chaos
	// injector's Dialer goes here). The final read-back never uses it.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Workers is the number of concurrent writer clients (default 2).
	Workers int
	// Ops is the number of operations each worker issues (default 50).
	Ops int
	// KeysPerWorker is how many counter keys each worker owns (default 3).
	KeysPerWorker int
	// Seed roots the workload's op-mix randomness (independent of the
	// fault plan's seed so the two schedules decorrelate).
	Seed uint64
	// Retry is the client retry policy every worker uses.
	Retry client.RetryPolicy
	// OpTimeout bounds each operation — a partitioned connection must not
	// wedge a worker forever. A timed-out op is ambiguous, not fatal.
	// Default 2s.
	OpTimeout time.Duration
	// CrashTolerant is Check's crashTolerant: set it for schedules that
	// kill -9 the server, whose exactly-once table does not survive the
	// crash. Leave it false for crash-free schedules, where a duplicated
	// effect can only mean that table failed.
	CrashTolerant bool
	// Stop, when non-nil, runs once every worker is done. It must stop the
	// server — Drain, or end its process — so that its log is quiescent,
	// and say where the log is; Check then takes every key's version order
	// from that log. Nil means a memory-only server.
	Stop func() (*Log, error)
}

// Report is what one workload run observed.
type Report struct {
	// Ops counts operations issued; Acked those answered; Ambiguous those
	// that errored (outcome unknown). The final read-back is not counted.
	Ops, Acked, Ambiguous int64
	// Retries, BusyRetries and Redials aggregate the workers' client
	// metrics.
	Retries, BusyRetries, Redials int64
	// Violations holds every contradiction Check found; empty means the
	// run passed.
	Violations []string
	// CrashAdopted counts duplicated effects adopted as crash-straddling
	// resends (only possible with WorkloadConfig.CrashTolerant).
	CrashAdopted int64
	// P99 is the 99th-percentile operation latency (retries included).
	P99 time.Duration
}

// Failed reports whether the checker found any violation.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// RunWorkload drives cfg.Workers fault-injected clients against the server,
// stops it through cfg.Stop and checks the recorded history. The returned
// error is infrastructural — a clean read-back could not reach the server,
// Stop failed, or Check could not judge the log. Semantic failures land in
// Report.Violations.
func RunWorkload(cfg WorkloadConfig) (*Report, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 50
	}
	if cfg.KeysPerWorker <= 0 {
		cfg.KeysPerWorker = 3
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Second
	}

	rep := &Report{}
	var (
		mu   sync.Mutex
		lats []time.Duration
		hist History
		wg   sync.WaitGroup
	)
	errs := make([]error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wk := worker{cfg: &cfg, id: id, rep: rep, mu: &mu, lats: &lats, hist: &hist}
			wk.run()
			errs[id] = wk.readBack()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}

	var log *Log
	if cfg.Stop != nil {
		var err error
		if log, err = cfg.Stop(); err != nil {
			return rep, fmt.Errorf("stopping the server: %w", err)
		}
	}
	v, err := Check(hist.Ops(), log, cfg.CrashTolerant)
	if err != nil {
		return rep, err
	}
	rep.Violations, rep.CrashAdopted = v.Violations, v.CrashAdopted

	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.P99 = lats[(len(lats)*99)/100]
	}
	return rep, nil
}

func counterKey(worker, k int) string { return fmt.Sprintf("w%d.k%d", worker, k) }
func casKeyOf(worker int) string      { return fmt.Sprintf("cas.w%d", worker) }

// worker is one writer client's run state.
type worker struct {
	cfg  *WorkloadConfig
	id   int
	rep  *Report
	mu   *sync.Mutex
	lats *[]time.Duration
	hist *History

	cl     *client.Client
	rng    prng
	seq    int     // program-order index of the next operation
	next   []int64 // next counter value per owned key
	casCur string  // the CAS key's value as last learned ("" = absent)
	casAmb string  // the value of a CAS whose outcome is unknown
}

// run is the worker's life: a seeded mix of PUT / GET / CAS / MULTI over
// its own keys, each recorded in the history.
func (w *worker) run() {
	w.rng = prng{s: w.cfg.Seed ^ uint64(w.id)*0x9e3779b97f4a7c15}
	w.rng.next()
	w.next = make([]int64, w.cfg.KeysPerWorker)

	w.cl = client.New(client.Options{
		Addr:     w.cfg.Addr,
		Conns:    1,
		Dial:     w.cfg.Dial,
		Retry:    w.cfg.Retry,
		ClientID: uint64(w.id) + 1,
	})
	defer func() {
		m := w.cl.Metrics()
		w.mu.Lock()
		w.rep.Retries += m.Retries
		w.rep.BusyRetries += m.BusyRetries
		w.rep.Redials += m.Redials
		w.mu.Unlock()
		w.cl.Close()
	}()

	for i := 0; i < w.cfg.Ops; i++ {
		switch op := w.rng.intn(10); {
		case op < 4:
			w.putOp()
		case op < 6:
			w.getOp()
		case op < 8:
			w.casOp(i)
		default:
			w.multiOp()
		}
	}
}

// add numbers op in the worker's program order and records it in the
// history; an error makes it ambiguous.
func (w *worker) add(op Op, err error) {
	if err != nil {
		op.Outcome = Ambiguous
	}
	op.Process, op.Index = w.id, w.seq
	w.seq++
	w.hist.Add(op)
}

// record books one finished op in the history and its latency and outcome
// in the report; it returns true when the op was answered.
func (w *worker) record(op Op, start time.Time, err error) bool {
	w.add(op, err)
	w.mu.Lock()
	*w.lats = append(*w.lats, time.Since(start))
	w.rep.Ops++
	if err != nil {
		w.rep.Ambiguous++
	} else {
		w.rep.Acked++
	}
	w.mu.Unlock()
	return err == nil
}

func (w *worker) opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), w.cfg.OpTimeout)
}

func (w *worker) putOp() {
	k := w.rng.intn(len(w.next))
	key := counterKey(w.id, k)
	w.next[k]++
	val := strconv.FormatInt(w.next[k], 10)
	start := time.Now()
	ctx, cancel := w.opCtx()
	err := w.cl.PutCtx(ctx, key, val)
	cancel()
	w.record(Op{Kind: "put", Access: []Access{{Key: key, Write: val}}}, start, err)
}

func (w *worker) getOp() {
	// Half the reads target another worker's keys.
	key := counterKey(w.id, w.rng.intn(w.cfg.KeysPerWorker))
	if w.rng.intn(2) == 0 {
		key = counterKey(w.rng.intn(w.cfg.Workers), w.rng.intn(w.cfg.KeysPerWorker))
	}
	start := time.Now()
	ctx, cancel := w.opCtx()
	v, _, err := w.cl.GetCtx(ctx, key)
	cancel()
	w.record(Op{Kind: "get", Access: []Access{{Key: key, Reads: true, Read: v}}}, start, err)
}

func (w *worker) casOp(i int) {
	key := casKeyOf(w.id)
	if w.casAmb != "" {
		// Learn the outcome of the in-doubt CAS before the next one: the
		// key holds the old or the attempted value, and the checker judges
		// which one it may hold.
		start := time.Now()
		ctx, cancel := w.opCtx()
		v, _, err := w.cl.GetCtx(ctx, key)
		cancel()
		if w.record(Op{Kind: "get", Access: []Access{{Key: key, Reads: true, Read: v}}}, start, err) {
			w.casCur, w.casAmb = v, ""
		}
		return
	}

	nextVal := fmt.Sprintf("c%d.%d", w.id, i)
	var expect []byte
	if w.casCur != "" {
		expect = []byte(w.casCur)
	}
	start := time.Now()
	ctx, cancel := w.opCtx()
	ok, cur, err := w.cl.CASCtx(ctx, key, expect, nextVal)
	cancel()
	op := Op{Kind: "cas", Access: []Access{{Key: key, Write: nextVal, Reads: true, Read: w.casCur}}}
	switch {
	case err != nil:
		w.casAmb = nextVal
	case ok:
		w.casCur = nextVal
	default:
		// The single writer always expects what it last learned, so with
		// exactly-once retries a mismatch is a duplicated effect; the
		// checker says so. Carry on from what the server holds.
		op.Outcome, op.Access[0].Read = Mismatch, string(cur)
		w.casCur = string(cur)
	}
	w.record(op, start, err)
}

func (w *worker) multiOp() {
	n := 1 + w.rng.intn(w.cfg.KeysPerWorker)
	batch := make([]wire.Cmd, 0, n)
	op := Op{Kind: "multi"}
	for j := 0; j < n; j++ {
		k := w.rng.intn(w.cfg.KeysPerWorker)
		key := counterKey(w.id, k)
		if slices.ContainsFunc(op.Access, func(a Access) bool { return a.Key == key }) {
			continue
		}
		w.next[k]++
		val := strconv.FormatInt(w.next[k], 10)
		batch = append(batch, wire.Put(key, []byte(val)))
		op.Access = append(op.Access, Access{Key: key, Write: val})
	}
	start := time.Now()
	ctx, cancel := w.opCtx()
	_, applied, err := w.cl.MultiCtx(ctx, batch)
	cancel()
	if err == nil && !applied {
		op.Outcome = Mismatch
	}
	w.record(op, start, err)
}

// readBack ends the worker's program with a read of every key it owns,
// over a clean connection: the reads its acked writes are held against.
// An error is infrastructural — even the clean connection failed.
func (w *worker) readBack() error {
	cl := client.New(client.Options{
		Addr:  w.cfg.Addr,
		Conns: 1,
		Retry: client.RetryPolicy{MaxAttempts: 10, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
	})
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	keys := []string{casKeyOf(w.id)}
	for k := 0; k < w.cfg.KeysPerWorker; k++ {
		keys = append(keys, counterKey(w.id, k))
	}
	for _, key := range keys {
		v, _, err := cl.GetCtx(ctx, key)
		if err != nil {
			return fmt.Errorf("final read of %s: %w", key, err)
		}
		w.add(Op{Kind: "get", Access: []Access{{Key: key, Reads: true, Read: v}}}, nil)
	}
	return nil
}
