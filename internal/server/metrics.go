// The server's observability wiring (DESIGN.md §14): every serving layer
// records into one internal/obs registry, and the registry is exposed as
// Prometheus text (/metrics), as the STATS reply's latency/abort sections,
// and through the slow-request flight recorder (/debug/wtfd/slow).
//
// The request lifecycle is split into five stages, each its own latency
// histogram per op class:
//
//	decode  frame payload → wire.Request (read loop)
//	queue   admission → executor dequeue (run-queue wait)
//	exec    the STM transaction, including WAL appends
//	sync    the durability barrier wait of deferred group acks: hand-off
//	        to the ack daemon until its fsync is done (window included)
//	flush   handing the response to the write loop (writer-queue wait)
//
// decode and queue are recorded per request; exec, sync and flush once per
// commit unit, under the class unitClass picks. The lock-free GET fast path
// records a sampled (1 in 64) end-to-end serve time instead:
// full per-stage clocking would double the cost of a 33ns path whose
// stages it skips by design.
//
// Abort attribution answers "which shard/box killed the transaction", per
// ordering mode: a served transaction submits no future, so the one
// direction that can abort it is backward, and the MV-STM conflict hook
// attributes those (commit-time read-set) validation failures to the store
// shard owning the stale box.
package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"wtftm"
	"wtftm/internal/obs"
	"wtftm/internal/wire"
)

// Stage indices for metrics.stage.
const (
	stDecode = iota
	stQueue
	stExec
	stSync
	stFlush
	numStages
)

var stageNames = [numStages]string{"decode", "queue", "exec", "sync", "flush"}

// Op classes for per-op stage histograms. "group" is the synthetic class
// for units that coalesced several requests; "other" covers PING/STATS.
const (
	opcGet = iota
	opcPut
	opcDel
	opcCAS
	opcMulti
	opcGroup
	opcOther
	numOpc
)

var opcNames = [numOpc]string{"get", "put", "del", "cas", "multi", "group", "other"}

func opClass(op wire.Op) int {
	switch op {
	case wire.OpGet:
		return opcGet
	case wire.OpPut:
		return opcPut
	case wire.OpDel:
		return opcDel
	case wire.OpCAS:
		return opcCAS
	case wire.OpMulti:
		return opcMulti
	}
	return opcOther
}

// unitClass is the one rule for where a commit unit's exec, sync and flush
// stages land (whoever records them: the executor, or the ack daemon for
// deferred write acks). A unit of one lands in its request's own class, on a
// durable server exactly as on a memory-only one; a unit that coalesced
// several requests lands in "group", because the shared transaction does
// the work for all members at once and splitting its cost per member would
// be fiction.
func unitClass(tasks []task) int {
	if len(tasks) == 1 {
		return opClass(tasks[0].req.Op)
	}
	return opcGroup
}

// defaultSlowMS is the flight-recorder threshold when Config.SlowMS is 0.
const defaultSlowMS = 20

// flightRingSize bounds the flight recorder's memory (fixed at ~96 B per
// record).
const flightRingSize = 256

// metrics is the server's registry handle plus the pre-registered series
// the hot paths record into. Always non-nil on a constructed Server.
type metrics struct {
	reg  *obs.Registry
	mode string // the server's ordering ("WO" or "SO"), the abort-attribution key

	// stage[stage][opClass] are the per-stage latency histograms (ns).
	stage [numStages][numOpc]*obs.Histogram
	// fastLat is the sampled end-to-end fast-read serve time (ns).
	fastLat *obs.Histogram
	// fsyncLat times each durability barrier (ns); batchOps is the WAL
	// records-per-append distribution and groupSize the tasks-per-group-
	// commit distribution (raw counts, not durations).
	fsyncLat  *obs.Histogram
	batchOps  *obs.Histogram
	groupSize *obs.Histogram

	// abortBackward[sh] counts commit-time read-set validation failures
	// attributed to store shard sh; the final entry collects boxes outside
	// the keyspace (engine-internal state).
	abortBackward []*obs.Counter

	// Flight recorder: requests slower than slowNS end-to-end are ringed.
	// slowNS <= 0 disables recording.
	slowNS int64
	flight *obs.Flight
}

// newMetrics builds the registry, registers every series (including
// scrape-time views over the counters the serving paths already maintain)
// and installs the STM conflict hook. Called from New after the executors
// exist and before durability opens (recovery replays through the STM).
func newMetrics(s *Server) *metrics {
	cfg := &s.cfg
	m := &metrics{
		reg:  obs.NewRegistry(),
		mode: s.sys.Options().Ordering.String(),
	}
	slowMS := int64(cfg.SlowMS)
	if slowMS == 0 {
		slowMS = defaultSlowMS
	}
	if slowMS > 0 {
		m.slowNS = slowMS * 1e6
		m.flight = obs.NewFlight(flightRingSize)
	}
	r := m.reg

	r.GaugeFunc("wtfd_info", "Constant 1; labels echo the instance's semantics mode.",
		obs.Labels{"ordering": m.mode, "shards": strconv.Itoa(cfg.Shards)},
		func() int64 { return 1 })

	for st := range m.stage {
		for opc := range m.stage[st] {
			m.stage[st][opc] = r.DurationHistogram("wtfd_stage_latency_seconds",
				"Per-stage request latency.",
				obs.Labels{"stage": stageNames[st], "op": opcNames[opc]})
		}
	}
	m.fastLat = r.DurationHistogram("wtfd_fastread_latency_seconds",
		"Sampled (1/64) end-to-end fast-path GET serve time.", nil)
	m.fsyncLat = r.DurationHistogram("wtfd_fsync_latency_seconds",
		"Durability barrier (fsync) latency.", nil)
	m.batchOps = r.Histogram("wtfd_wal_batch_ops",
		"Effective writes per WAL append batch.", nil)
	m.groupSize = r.Histogram("wtfd_group_commit_ops",
		"Tasks per group-commit transaction.", nil)

	// Abort attribution, keyed by mode. A served transaction submits no
	// future, so the one direction that can abort it is backward: MV-STM
	// read-set validation at commit, split per stale box's shard.
	m.abortBackward = make([]*obs.Counter, cfg.Shards+1)
	for sh := range m.abortBackward {
		lbl := strconv.Itoa(sh)
		if sh == cfg.Shards {
			lbl = "other"
		}
		m.abortBackward[sh] = r.Counter("wtfd_aborts_total",
			"Transaction aborts by validation direction (and shard for backward validation).",
			obs.Labels{"mode": m.mode, "direction": "stm_backward", "shard": lbl})
	}
	es := s.sys.Stats()
	r.CounterFunc("wtfd_top_conflicts_total",
		"Top-level transaction conflict retries (engine view).", nil,
		func() int64 { return es.TopConflict.Load() })

	s.stm.SetConflictHook(func(b *wtftm.VBox) {
		m.abortBackward[boxShard(b.Name, cfg.Shards)].Inc()
	})

	// Queue-depth and in-flight gauges.
	for _, ex := range s.execs {
		q := ex.q
		r.GaugeFunc("wtfd_exec_queue_depth", "Executor run-queue depth.",
			obs.Labels{"executor": strconv.Itoa(ex.id)},
			func() int64 { return int64(len(q)) })
	}
	r.GaugeFunc("wtfd_inflight", "Admitted-but-unanswered requests.", nil, s.inflight.Load)
	r.GaugeFunc("wtfd_conns_active", "Open connections.", nil, s.connsActive.Load)

	// Scrape-time views over the throughput counters the serving paths
	// batch into server atomics (fastread.go's flushFastStats et al).
	counter := func(name, help string, fn func() int64) { r.CounterFunc(name, help, nil, fn) }
	counter("wtfd_requests_total", "Requests served (all ops, fast reads included).", s.requests.Load)
	counter("wtfd_keys_served_total", "Store commands served (MULTI members counted).", s.keysServed.Load)
	counter("wtfd_fast_reads_total", "GETs served on the lock-free fast path.", s.fastReads.Load)
	counter("wtfd_fast_read_retries_total", "ReadLatest retries on the fast path.", s.fastReadRetries.Load)
	counter("wtfd_fast_read_fallbacks_total", "Fast-path GETs routed to an executor.", s.fastReadFallbacks.Load)
	counter("wtfd_shed_total", "Requests refused with BUSY under overload.", s.shed.Load)
	counter("wtfd_bad_frames_total", "Malformed frames.", s.badFrames.Load)
	counter("wtfd_group_commits_total", "Coalesced group-commit transactions.", s.groupCommits.Load)
	counter("wtfd_grouped_ops_total", "Ops carried by group commits.", s.groupedOps.Load)
	counter("wtfd_multi_batches_total", "MULTI batches served.", s.multiBatches.Load)
	counter("wtfd_dedup_hits_total", "Writes answered from the exactly-once table.", s.dedupHits.Load)
	counter("wtfd_idle_reaped_total", "Connections reaped by the idle deadline.", s.idleReaped.Load)
	counter("wtfd_conns_opened_total", "Connections accepted.", s.connsOpened.Load)
	counter("wtfd_stm_commits_total", "MV-STM read-write commits.", s.stm.Stats().Commits.Load)
	counter("wtfd_stm_conflicts_total", "MV-STM validation conflicts.", s.stm.Stats().Conflicts.Load)
	return m
}

// boxShard attributes a box to a store shard by its name ("shard<N>.<...>"
// — store.go names every bucket and size box that way); anything else maps
// to the trailing "other" slot.
func boxShard(name string, shards int) int {
	if !strings.HasPrefix(name, "shard") {
		return shards
	}
	n := 0
	ok := false
	for i := len("shard"); i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			if c == '.' && ok {
				break
			}
			return shards
		}
		n = n*10 + int(c-'0')
		ok = true
		if n >= shards {
			return shards
		}
	}
	if !ok {
		return shards
	}
	return n
}

// flightKey captures a request's flight-recorder identity (key hash +
// shard) before the request object is recycled. The hash is the store's
// key hash, so it lines up with shard assignment. MULTI and keyless ops
// report no key.
func (s *Server) flightKey(req *wire.Request) (uint32, int) {
	if singleKey(req.Op) {
		return fnv1a(req.Cmd.Key), s.store.shardOf(req.Cmd.Key)
	}
	return 0, -1
}

// recordFlight rings one completed slow request. Callers checked the
// threshold already; outcome strings are the wire status names (constant,
// no allocation).
func (m *metrics) recordFlight(op wire.Op, keyHash uint32, shard int, st wire.Status,
	dec, queue, exec, sync, flush, total int64) {
	m.flight.Record(obs.FlightRecord{
		Wall:     obs.WallOf(obs.Now()).UnixNano(),
		Op:       op.String(),
		KeyHash:  keyHash,
		Shard:    shard,
		Outcome:  st.String(),
		DecodeNS: dec,
		QueueNS:  queue,
		ExecNS:   exec,
		SyncNS:   sync,
		FlushNS:  flush,
		TotalNS:  total,
	})
}

// latencySection assembles the STATS reply's histogram summaries: every
// non-empty stage/op series plus the fast-read, fsync and batch-size
// distributions. Durations are reported in microseconds; the two size
// histograms report raw counts.
func (m *metrics) latencySection() []wire.LatencyStats {
	out := make([]wire.LatencyStats, 0, 16)
	add := func(stage, op string, h *obs.Histogram, scale float64) {
		snap := h.Snapshot()
		if snap.Count == 0 {
			return
		}
		out = append(out, wire.LatencyStats{
			Stage: stage,
			Op:    op,
			Count: snap.Count,
			Mean:  snap.Mean() * scale,
			P50:   float64(snap.Quantile(0.5)) * scale,
			P90:   float64(snap.Quantile(0.9)) * scale,
			P99:   float64(snap.Quantile(0.99)) * scale,
			P999:  float64(snap.Quantile(0.999)) * scale,
			Max:   float64(snap.Max()) * scale,
			Hist:  obs.AppendHist(nil, snap),
		})
	}
	const usPerNS = 1e-3
	for st := range m.stage {
		for opc := range m.stage[st] {
			add(stageNames[st], opcNames[opc], m.stage[st][opc], usPerNS)
		}
	}
	add("fastread", "", m.fastLat, usPerNS)
	add("fsync", "", m.fsyncLat, usPerNS)
	add("batch_ops", "", m.batchOps, 1)
	add("group_size", "", m.groupSize, 1)
	return out
}

// abortSection assembles the STATS reply's abort-attribution section.
func (m *metrics) abortSection() *wire.AbortStats {
	a := &wire.AbortStats{
		Mode:            m.mode,
		BackwardByShard: make([]int64, len(m.abortBackward)),
	}
	for sh, c := range m.abortBackward {
		v := c.Value()
		a.BackwardByShard[sh] = v
		a.Backward += v
	}
	return a
}

// DebugHandler returns the HTTP mux wtfd mounts next to pprof: Prometheus
// text at /metrics, the STATS document as JSON at /debug/wtfd/stats, and
// the flight recorder's slow-request ring at /debug/wtfd/slow.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.m.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/wtfd/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.statsReply())
	})
	mux.HandleFunc("/debug/wtfd/slow", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.WriteSlowDump(w)
	})
	return mux
}

// WriteSlowDump writes the flight recorder's contents as indented JSON
// (newest first). It backs both /debug/wtfd/slow and wtfd's SIGQUIT dump.
func (s *Server) WriteSlowDump(w io.Writer) error {
	m := s.m
	doc := struct {
		ThresholdMS int64              `json:"threshold_ms"`
		Total       uint64             `json:"total_recorded"`
		Records     []obs.FlightRecord `json:"records"`
	}{}
	if m.flight != nil {
		doc.ThresholdMS = m.slowNS / 1e6
		doc.Total = m.flight.Total()
		doc.Records = m.flight.Snapshot()
	} else {
		doc.ThresholdMS = -1
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Metrics exposes the registry (tests, embedders).
func (s *Server) Metrics() *obs.Registry { return s.m.reg }
