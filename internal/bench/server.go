package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"wtftm/internal/chaos"
	"wtftm/internal/client"
	"wtftm/internal/core"
	"wtftm/internal/obs"
	"wtftm/internal/server"
	"wtftm/internal/wal"
	"wtftm/internal/wire"
	"wtftm/internal/workload"
)

// ServerParams configures the wtfd end-to-end experiment: a closed-loop
// load generator against an in-process server on the loopback interface,
// sweeping client counts, per-connection pipeline depth and MULTI batch
// sizes under WO and SO futures, plus the shard-affine executor count at the
// highest client count. It is not a paper figure — it measures the paper's
// semantics axis as an operator-visible serving knob: how much does weakly
// ordered fan-out buy a networked request once protocol framing, scheduling
// and the commit pipeline are all in the path?
type ServerParams struct {
	// Clients is the x-axis: concurrent closed-loop clients, one pipelined
	// connection each.
	Clients []int
	// Batches are the MULTI batch sizes to sweep; batch 1 issues plain
	// single-key requests (no futures) as the baseline.
	Batches []int
	// Pipeline is the per-connection pipeline depth for the single-key
	// (batch 1) sweep: each client keeps this many requests in flight on its
	// one connection. Depth 1 is strict request/response; deeper pipelines
	// let the server batch reads, coalesce commits and batch response
	// flushes. MULTI points always run at depth 1 (the batch is the
	// pipeline).
	Pipeline []int
	// Keys is the keyspace size (uniform access).
	Keys int
	// Shards is the server's store partition count (the fan-out ceiling).
	Shards int
	// WriteRatio is the fraction of PUTs in the command mix (rest are GETs).
	WriteRatio float64
	// Executors defines the tuning sub-sweep, run at the highest client
	// count and pipeline depth with batch 1 under WO: shard-affine executor
	// goroutines.
	Executors []int
	// FsyncModes defines the durability sub-sweep: "mem" serves memory-only
	// (the baseline every durable mode is normalized against), the rest run
	// with a WAL in a throwaway data directory under that -fsync policy
	// ("off", "group", "always").
	FsyncModes []string
	// DurShards and DurPipeline shape the durability sub-sweep (every mode,
	// including the "mem" baseline, runs the same shape, so the rows compare
	// directly). The pipeline is deep — group commit amortizes fsyncs across
	// concurrent writes, so it needs concurrency to amortize against — and
	// the shard count modest, because each shard is its own WAL file and
	// fsync stream: dividing the write arrival 16 ways starves every
	// stream's batch.
	DurShards   int
	DurPipeline int
	// Degraded lists chaos transport scenarios (internal/chaos names, plus
	// "clean" for the fault-free baseline row) to run with retrying
	// clients: completed req/s and p99 under injected faults, the
	// operator-facing cost of a degraded network.
	Degraded []string
}

// DefaultServer returns a host-scaled parameter set: ≥3 client counts and
// ≥2 batch sizes per ordering, ≥2 pipeline depths, and an executor-count
// tuning row set.
func DefaultServer(quick bool) ServerParams {
	p := ServerParams{
		Clients:     []int{1, 2, 4, 8, 16},
		Batches:     []int{1, 8, 32},
		Pipeline:    []int{1, 8},
		Keys:        1 << 14,
		Shards:      16,
		WriteRatio:  0.2,
		Executors:   []int{1, 2, 4},
		FsyncModes:  []string{"mem", "off", "group", "always"},
		DurShards:   4,
		DurPipeline: 32,
		Degraded:    []string{"clean", "reset", "slow-client", "partition"},
	}
	if quick {
		p.Clients = []int{1, 2, 4}
		p.Batches = []int{1, 8}
		p.Pipeline = []int{1, 4}
		p.Keys = 1 << 10
		p.Shards = 8
		p.Executors = []int{1, 2}
		p.Degraded = []string{"clean", "reset"}
	}
	return p
}

// ServerPoint is one measurement.
type ServerPoint struct {
	Ordering string // "WO" or "SO"
	Clients  int
	Batch    int
	// Pipeline is the per-connection pipeline depth this point ran at.
	Pipeline int
	// Executors echoes the executor count the point ran with (0 = server
	// default).
	Executors int
	// Fsync is the durability mode the point ran under ("" for the plain
	// memory-only sweep, "mem"/"off"/"group"/"always" in the durability
	// sub-sweep); Fsyncs and WALRecords echo the server's WAL counters.
	Fsync      string
	Fsyncs     int64
	WALRecords int64
	// ReqPerSec is completed requests (frames) per second.
	ReqPerSec float64
	// KeysPerSec is ReqPerSec × batch: per-key serving rate.
	KeysPerSec float64
	// P50, P99 and P999 are request latency percentiles, read from a shared
	// internal/obs log-linear histogram (bucket upper bounds, ≤6.25% high)
	// instead of a sorted sample — the generator no longer retains every
	// latency observation.
	P50  time.Duration
	P99  time.Duration
	P999 time.Duration
	// GroupCommits / GroupedOps echo the server's group-commit counters for
	// the point (coalesced transactions and the single-key ops they
	// carried) — the direct measure of how often pipeline backlog actually
	// produced a group.
	GroupCommits int64
	GroupedOps   int64
	// Scenario names the chaos transport scenario of a degraded-network
	// row ("" for fault-free points, "clean" for the degraded sweep's
	// baseline); Errors counts operations that failed through all retries
	// and Retries the client resend attempts the completed rate paid for.
	Scenario string
	Errors   int64
	Retries  int64
	// FastReads echoes whether the server's lock-free GET path was enabled,
	// and FastServed is how many GETs it actually answered from the
	// connection read loop — without an executor hop or a transaction.
	FastReads  bool
	FastServed int64
}

// ServerResult is the full sweep.
type ServerResult struct {
	Params ServerParams
	Points []ServerPoint
}

// RunServer sweeps orderings × batch sizes × client counts (× pipeline
// depth for the single-key points), one fresh server per point (so a
// point's commit history cannot warm another's), then the executor-count
// rows at the heaviest single-key point.
func RunServer(cfg Config, p ServerParams) (*ServerResult, error) {
	res := &ServerResult{Params: p}
	for _, ord := range []core.Ordering{core.WO, core.SO} {
		for _, batch := range p.Batches {
			pipes := []int{1}
			if batch == 1 && len(p.Pipeline) > 0 {
				pipes = p.Pipeline
			}
			for _, pipe := range pipes {
				for _, clients := range p.Clients {
					pt, err := runServerPoint(cfg, p, ord, clients, batch, pipe, 0)
					if err != nil {
						return nil, err
					}
					res.Points = append(res.Points, pt)
					cfg.progress("server %s clients=%d batch=%d pipe=%d done", ord, clients, batch, pipe)
				}
			}
		}
	}
	// Tuning rows: heaviest single-key shape (max clients, max pipeline)
	// under WO, sweeping executor count.
	for _, execs := range p.Executors {
		pt, err := runServerPoint(cfg, p, core.WO, maxInt(p.Clients), 1, maxInt(p.Pipeline), execs)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
		cfg.progress("server tune execs=%d done", execs)
	}
	// Durability sweep: one deep-pipelined single-key shape across fsync
	// modes, so the cost of each ack policy reads directly against the
	// memory-only ("mem") baseline row (see DurShards/DurPipeline).
	if len(p.FsyncModes) > 0 {
		clients := maxInt(p.Clients)
		pipe := p.DurPipeline
		if pipe <= 0 {
			pipe = maxInt(p.Pipeline)
		}
		for _, mode := range p.FsyncModes {
			pt, err := runDurablePoint(cfg, p, clients, pipe, mode)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pt)
			cfg.progress("server fsync=%s done", mode)
		}
	}
	// Degraded-network sweep: retrying clients through fault-injected
	// transports — what the serving rate and tail look like when the
	// network misbehaves and the retry/backoff path carries the load.
	for _, scenario := range p.Degraded {
		pt, err := runDegradedPoint(cfg, p, scenario)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
		cfg.progress("server degraded=%s done", scenario)
	}
	return res, nil
}

// runDegradedPoint measures a closed loop of retrying clients through the
// chaos injector (scenario "clean" runs the identical loop fault-free as
// the baseline). Operations that fail through every retry are counted, not
// fatal — surviving faults is the measurement.
func runDegradedPoint(cfg Config, p ServerParams, scenario string) (ServerPoint, error) {
	srv, err := server.New(server.Config{Ordering: core.WO, Shards: p.Shards})
	if err != nil {
		return ServerPoint{}, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return ServerPoint{}, err
	}
	defer srv.Drain()
	addr := srv.Addr().String()

	var dial func(string, time.Duration) (net.Conn, error)
	if scenario != "clean" {
		plan, err := chaos.Scenario(scenario, 1)
		if err != nil {
			return ServerPoint{}, err
		}
		dial = chaos.NewInjector(plan).Dialer()
	}
	retry := client.RetryPolicy{MaxAttempts: 8, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}

	const clients = 4
	warmup := cfg.Duration / 3
	warmupEnd := time.Now().Add(warmup)
	deadline := warmupEnd.Add(cfg.Duration)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		totalReq int64
		totalErr int64
		retries  int64
		lath     = obs.NewHistogram(0)
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := client.New(client.Options{Addr: addr, Conns: 1, Dial: dial, Retry: retry})
			defer cl.Close()
			rng := workload.NewRNG(uint64(w)*2654435761 + 977)
			var reqs, errs int64
			for {
				now := time.Now()
				if now.After(deadline) {
					break
				}
				measuring := now.After(warmupEnd)
				key := benchKey(rng.Intn(p.Keys))
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				start := time.Now()
				var err error
				if rng.Float64() < p.WriteRatio {
					err = cl.PutCtx(ctx, key, "1")
				} else {
					_, _, err = cl.GetCtx(ctx, key)
				}
				cancel()
				if !measuring {
					continue
				}
				if err != nil {
					errs++
					continue
				}
				lath.Observe(int64(time.Since(start)))
				reqs++
			}
			m := cl.Metrics()
			mu.Lock()
			totalReq += reqs
			totalErr += errs
			retries += m.Retries + m.BusyRetries
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	pt := ServerPoint{
		Ordering:   core.WO.String(),
		Clients:    clients,
		Batch:      1,
		Pipeline:   1,
		Scenario:   scenario,
		Errors:     totalErr,
		Retries:    retries,
		ReqPerSec:  float64(totalReq) / cfg.Duration.Seconds(),
		KeysPerSec: float64(totalReq) / cfg.Duration.Seconds(),
	}
	fillQuantiles(&pt, lath)
	return pt, nil
}

// runDurablePoint measures one durability mode: "mem" is the plain in-memory
// server, anything else runs a WAL in a fresh temporary data directory
// (removed afterwards) under that sync policy.
func runDurablePoint(cfg Config, p ServerParams, clients, pipe int, mode string) (ServerPoint, error) {
	shards := p.DurShards
	if shards <= 0 {
		shards = p.Shards
	}
	scfg := server.Config{Ordering: core.WO, Shards: shards}
	if mode != "mem" {
		pol, err := wal.ParseSyncPolicy(mode)
		if err != nil {
			return ServerPoint{}, err
		}
		dir, err := os.MkdirTemp("", "wtfd-bench-")
		if err != nil {
			return ServerPoint{}, err
		}
		defer os.RemoveAll(dir)
		scfg.DataDir = dir
		scfg.Fsync = pol
	}
	pt, err := runServerConfigPoint(cfg, p, scfg, clients, 1, pipe)
	if err != nil {
		return ServerPoint{}, err
	}
	pt.Fsync = mode
	return pt, nil
}

func maxInt(xs []int) int {
	m := 1
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func runServerPoint(cfg Config, p ServerParams, ord core.Ordering, clients, batch, pipe, execs int) (ServerPoint, error) {
	return runServerConfigPoint(cfg, p, server.Config{Ordering: ord, Shards: p.Shards, Executors: execs}, clients, batch, pipe)
}

// runServerConfigPoint runs one closed-loop measurement against a fresh
// server built from scfg.
func runServerConfigPoint(cfg Config, p ServerParams, scfg server.Config, clients, batch, pipe int) (ServerPoint, error) {
	srv, err := server.New(scfg)
	if err != nil {
		return ServerPoint{}, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return ServerPoint{}, err
	}
	defer srv.Drain()
	addr := srv.Addr().String()

	// Prefill the keyspace so GETs hit.
	seed := client.New(client.Options{Addr: addr, Conns: 1})
	var fill []wire.Cmd
	for i := 0; i < p.Keys; i++ {
		fill = append(fill, wire.Put(benchKey(i), []byte("0")))
		if len(fill) == 512 || i == p.Keys-1 {
			if _, _, err := seed.Multi(fill); err != nil {
				seed.Close()
				return ServerPoint{}, err
			}
			fill = fill[:0]
		}
	}
	groupsBefore, opsBefore := int64(0), int64(0)
	if st, err := seed.Stats(); err == nil {
		groupsBefore, opsBefore = st.Server.GroupCommits, st.Server.GroupedOps
	}
	seed.Close()

	// A warmup third lets connection setup, pool priming and the first GC
	// cycles happen outside the measured window; only requests completing
	// after warmupEnd count.
	warmup := cfg.Duration / 3
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		totalReq int64
		lath     = obs.NewHistogram(0)
	)
	warmupEnd := time.Now().Add(warmup)
	deadline := warmupEnd.Add(cfg.Duration)
	for w := 0; w < clients; w++ {
		cl := client.New(client.Options{Addr: addr, Conns: 1})
		defer cl.Close()
		for g := 0; g < pipe; g++ {
			wg.Add(1)
			go func(w, g int) {
				defer wg.Done()
				rng := workload.NewRNG(uint64(w*64+g)*2654435761 + 12345)
				var reqs int64
				measuring := false
				cmds := make([]wire.Cmd, batch)
				for {
					now := time.Now()
					if now.After(deadline) {
						break
					}
					if !measuring && now.After(warmupEnd) {
						measuring = true
					}
					for i := range cmds {
						key := benchKey(rng.Intn(p.Keys))
						if rng.Float64() < p.WriteRatio {
							cmds[i] = wire.Put(key, []byte("1"))
						} else {
							cmds[i] = wire.Get(key)
						}
					}
					start := time.Now()
					var err error
					if batch == 1 {
						switch cmds[0].Op {
						case wire.OpPut:
							err = cl.Put(cmds[0].Key, string(cmds[0].Val))
						default:
							_, _, err = cl.Get(cmds[0].Key)
						}
					} else {
						_, _, err = cl.Multi(cmds)
					}
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					if measuring {
						lath.Observe(int64(time.Since(start)))
						reqs++
					}
				}
				mu.Lock()
				totalReq += reqs
				mu.Unlock()
			}(w, g)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return ServerPoint{}, firstErr
	}
	pt := ServerPoint{
		Ordering:   scfg.Ordering.String(),
		Clients:    clients,
		Batch:      batch,
		Pipeline:   pipe,
		Executors:  scfg.Executors,
		ReqPerSec:  float64(totalReq) / cfg.Duration.Seconds(),
		KeysPerSec: float64(totalReq*int64(batch)) / cfg.Duration.Seconds(),
	}
	if st := statsOf(addr); st != nil {
		pt.GroupCommits = st.Server.GroupCommits - groupsBefore
		pt.GroupedOps = st.Server.GroupedOps - opsBefore
		pt.FastReads = st.Server.FastReadsEnabled
		pt.FastServed = st.Server.FastReads
		if st.WAL != nil {
			pt.Fsyncs = st.WAL.Fsyncs
			pt.WALRecords = st.WAL.AppendedRecords
		}
	}
	fillQuantiles(&pt, lath)
	return pt, nil
}

// statsOf fetches the server's stats over a throwaway connection (nil on
// any error; the sweep's throughput numbers never depend on it).
func statsOf(addr string) *wire.StatsReply {
	cl := client.New(client.Options{Addr: addr, Conns: 1})
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		return nil
	}
	return st
}

func benchKey(i int) string { return fmt.Sprintf("bench-key-%d", i) }

// fillQuantiles reads a point's latency percentiles out of a measurement
// histogram (nanosecond observations).
func fillQuantiles(pt *ServerPoint, h *obs.Histogram) {
	s := h.Snapshot()
	pt.P50 = time.Duration(s.Quantile(0.50))
	pt.P99 = time.Duration(s.Quantile(0.99))
	pt.P999 = time.Duration(s.Quantile(0.999))
}

// Print renders the sweep: WO vs SO serving throughput and tail latency,
// with the executor-count tuning rows at the bottom.
func (r *ServerResult) Print(w io.Writer) {
	fmt.Fprintln(w, "wtfd end-to-end: MULTI fan-out under WO vs SO futures (closed loop, loopback TCP)")
	t := newTable("ordering", "clients", "batch", "pipe", "execs", "fsync", "req/s", "keys/s", "p50", "p99", "p999", "grouped")
	var degraded []ServerPoint
	for _, pt := range r.Points {
		if pt.Scenario != "" {
			degraded = append(degraded, pt)
			continue
		}
		execs := "auto"
		if pt.Executors > 0 {
			execs = fmt.Sprint(pt.Executors)
		}
		grouped := "-"
		if pt.GroupedOps > 0 {
			grouped = fmt.Sprintf("%d/%d", pt.GroupedOps, pt.GroupCommits)
		}
		fsync := "-"
		if pt.Fsync != "" {
			fsync = pt.Fsync
		}
		t.add(pt.Ordering, fmt.Sprint(pt.Clients), fmt.Sprint(pt.Batch), fmt.Sprint(pt.Pipeline),
			execs, fsync,
			fmt.Sprintf("%.0f", pt.ReqPerSec), fmt.Sprintf("%.0f", pt.KeysPerSec),
			pt.P50.Round(time.Microsecond).String(), pt.P99.Round(time.Microsecond).String(),
			pt.P999.Round(time.Microsecond).String(), grouped)
	}
	t.print(w)
	if len(degraded) > 0 {
		fmt.Fprintln(w, "\ndegraded network: retrying clients through chaos transports (completed req/s; errors = ops that failed all retries)")
		dt := newTable("scenario", "clients", "req/s", "p50", "p99", "p999", "errors", "retries")
		for _, pt := range degraded {
			dt.add(pt.Scenario, fmt.Sprint(pt.Clients),
				fmt.Sprintf("%.0f", pt.ReqPerSec),
				pt.P50.Round(time.Microsecond).String(), pt.P99.Round(time.Microsecond).String(),
				pt.P999.Round(time.Microsecond).String(),
				fmt.Sprint(pt.Errors), fmt.Sprint(pt.Retries))
		}
		dt.print(w)
	}
}
