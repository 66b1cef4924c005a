package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wtftm/internal/wire"
)

// drive pushes a little of everything through a server so every serving path
// has recorded at least one stage observation: solo writes, fast and
// fallback reads, a MULTI fan-out, and an intentional CAS mismatch.
func drive(t *testing.T, s *Server) {
	t.Helper()
	cl := newClient(t, s, 1)
	for i := 0; i < 32; i++ {
		k := "k" + string(rune('a'+i%8))
		if err := cl.Put(k, "v"); err != nil {
			t.Fatalf("PUT: %v", err)
		}
		if _, _, err := cl.Get(k); err != nil {
			t.Fatalf("GET: %v", err)
		}
	}
	if _, _, err := cl.Multi([]wire.Cmd{
		{Op: wire.OpPut, Key: "m1", Val: []byte("1")},
		{Op: wire.OpPut, Key: "m2", Val: []byte("2")},
		{Op: wire.OpGet, Key: "ka"},
	}); err != nil {
		t.Fatalf("MULTI: %v", err)
	}
	if _, _, err := cl.CAS("ka", []byte("wrong-old"), "new"); err != nil {
		t.Fatalf("CAS: %v", err)
	}
}

// The Prometheus endpoint must expose the stage histograms, the mode-keyed
// abort counters and the executor queue gauges after real traffic.
func TestMetricsEndpoint(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 4, Buckets: 8, Executors: 2})
	drive(t, s)

	rec := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`wtfd_info{ordering="WO",shards="4"} 1`,
		`wtfd_stage_latency_seconds{op="put",stage="decode",quantile=`,
		`wtfd_stage_latency_seconds_count{op="get",stage="exec"}`,
		`wtfd_stage_latency_seconds_count{op="multi",stage="exec"}`,
		`wtfd_aborts_total{direction="stm_backward",mode="WO",shard="0"}`,
		`wtfd_aborts_total{direction="stm_backward",mode="WO",shard="other"}`,
		`wtfd_exec_queue_depth{executor="0"}`,
		`wtfd_exec_queue_depth{executor="1"}`,
		"wtfd_requests_total",
		"wtfd_fast_reads_total",
		"# TYPE wtfd_stage_latency_seconds summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// A served transaction submits no future, so no forward direction is
	// exported.
	for _, gone := range []string{"so_continuation", "future_reexec", "escape_reexec", "wtfd_future_fanouts_total"} {
		if strings.Contains(body, gone) {
			t.Errorf("/metrics exports %q", gone)
		}
	}

	// The JSON twin carries the same document the STATS op serves.
	rec = httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/wtfd/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/wtfd/stats status = %d", rec.Code)
	}
	var doc struct {
		Latency []wire.LatencyStats `json:"latency"`
		Aborts  *wire.AbortStats    `json:"aborts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if len(doc.Latency) == 0 || doc.Aborts == nil {
		t.Fatalf("stats JSON missing latency/aborts sections: %+v", doc)
	}

	rec = httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/wtfd/slow", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/wtfd/slow status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "threshold_ms") {
		t.Fatalf("/debug/wtfd/slow body = %q", rec.Body.String())
	}
}

// The STATS wire op must carry the histogram summaries and abort attribution
// end to end through a real client.
func TestStatsWireSections(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 4, Buckets: 8})
	drive(t, s)

	cl := newClient(t, s, 1)
	reply, err := cl.Stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if reply.Aborts == nil {
		t.Fatal("STATS reply has no aborts section")
	}
	if reply.Aborts.Mode != "WO" {
		t.Fatalf("aborts mode = %q", reply.Aborts.Mode)
	}
	// Per-shard slots plus the trailing "other" bucket for boxes whose name
	// has no shard prefix.
	if len(reply.Aborts.BackwardByShard) != 5 {
		t.Fatalf("BackwardByShard len = %d, want shards+1=5", len(reply.Aborts.BackwardByShard))
	}
	// Every future body ran on the flow evaluating it or on a woken worker.
	if e := reply.Engine; e.ClaimedAtEvaluation > e.FuturesSubmitted ||
		(e.FuturesSubmitted > 0 && e.ClaimedAtEvaluation == 0 && e.WorkerWakes == 0) {
		t.Fatalf("engine section: %d futures, %d claimed at evaluation, %d worker wakes",
			e.FuturesSubmitted, e.ClaimedAtEvaluation, e.WorkerWakes)
	}
	if len(reply.Latency) == 0 {
		t.Fatal("STATS reply has no latency section")
	}
	stages := map[string]bool{}
	for _, l := range reply.Latency {
		stages[l.Stage] = true
		if l.Count == 0 {
			t.Errorf("latency entry %s/%s has zero count", l.Stage, l.Op)
		}
		if l.P999 < l.P50 {
			t.Errorf("latency entry %s/%s: p999 %v < p50 %v", l.Stage, l.Op, l.P999, l.P50)
		}
	}
	for _, want := range []string{"decode", "queue", "exec", "flush"} {
		if !stages[want] {
			t.Errorf("latency section missing stage %q (got %v)", want, stages)
		}
	}
}

// A request slower than the threshold must land in the flight recorder with
// its stage breakdown, and the dump endpoint must serve it.
func TestFlightRecorderCapturesSlow(t *testing.T) {
	leakCheck(t)
	cfg := Config{Shards: 2, Buckets: 8, SlowMS: 1}
	cfg.execHook = func(req *wire.Request) {
		if req.Op == wire.OpPut {
			time.Sleep(3 * time.Millisecond)
		}
	}
	s := startServer(t, cfg)
	cl := newClient(t, s, 1)
	if err := cl.Put("slowkey", "v"); err != nil {
		t.Fatalf("PUT: %v", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for s.m.flight.Total() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no flight record for a 3ms request with SlowMS=1")
		}
		time.Sleep(5 * time.Millisecond)
	}

	rec := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/wtfd/slow", nil))
	var dump struct {
		ThresholdMS int64 `json:"threshold_ms"`
		Total       int64 `json:"total_recorded"`
		Records     []struct {
			Op      string `json:"op"`
			Outcome string `json:"outcome"`
			ExecNS  int64  `json:"exec_ns"`
			TotalNS int64  `json:"total_ns"`
		} `json:"records"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("slow dump JSON: %v\n%s", err, rec.Body.String())
	}
	if dump.ThresholdMS != 1 || dump.Total == 0 || len(dump.Records) == 0 {
		t.Fatalf("slow dump = %+v", dump)
	}
	r := dump.Records[0]
	if r.Op != "PUT" || r.Outcome != "OK" {
		t.Fatalf("record = %+v, want a PUT/OK", r)
	}
	if r.ExecNS < int64(2*time.Millisecond) || r.TotalNS < r.ExecNS {
		t.Fatalf("record stages = %+v, want exec >= 2ms and total >= exec", r)
	}
}

// A disabled recorder (negative SlowMS) must report itself disabled rather
// than panic or serve stale state.
func TestFlightRecorderDisabled(t *testing.T) {
	leakCheck(t)
	s := startServer(t, Config{Shards: 2, Buckets: 8, SlowMS: -1})
	drive(t, s)
	rec := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/wtfd/slow", nil))
	var dump struct {
		ThresholdMS int64 `json:"threshold_ms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("slow dump JSON: %v", err)
	}
	if dump.ThresholdMS != -1 {
		t.Fatalf("disabled recorder threshold = %d, want -1", dump.ThresholdMS)
	}
}
