package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"io"
	"math"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wtftm/internal/wire"
)

// streamHash encodes the first n requests of connection 0's stream the way
// a sender would (sequence numbers counted per key) and hashes the frames.
func streamHash(w *workload, seed uint64, n int) [32]byte {
	ks := newKeyspace(w, seed)
	st := genStream(w, seed, 0, conns, n)
	rb := newReqBuilder(w, ks, 0)
	seqs := map[int]uint64{}
	var frames []byte
	for i := 0; i < n; i++ {
		o, _ := st.nextOp()
		var seq uint64
		if o.write() {
			seqs[o.index()]++
			seq = seqs[o.index()]
		}
		var err error
		if frames, err = appendFrame(frames, rb.build(uint32(i), o, seq)); err != nil {
			panic(err)
		}
	}
	return sha256.Sum256(frames)
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		if !w.served {
			continue
		}
		a, b, c := streamHash(w, 7, 4096), streamHash(w, 7, 4096), streamHash(w, 8, 4096)
		if a != b {
			t.Errorf("%s: the same seed gave two different request streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
	a, b := genBankInput(7, 0, 64), genBankInput(7, 0, 64)
	c := genBankInput(8, 0, 64)
	same := func(x, y bankInput) bool {
		for i := range x {
			for j := range x[i] {
				if x[i][j].Kind != y[i][j].Kind || x[i][j].Amount != y[i][j].Amount {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) || same(a, c) {
		t.Errorf("bank-futures: log is not a function of the seed alone")
	}
}

// wtfd queues a MULTI on the executor that owns its first key's shard. The
// MULTIs over one group must start on keys of both executors, or two
// transactions over the same keys would never run at once and multi-hot
// would have no real conflicts.
func TestMultiHotGroupReachesBothExecutors(t *testing.T) {
	w := findWorkload("multi-hot")
	ks := newKeyspace(w, 7)
	st := genStream(w, 7, 0, conns, 4096)
	rb := newReqBuilder(w, ks, 0)
	var firstShardParity [2]int
	for i := 0; i < 4096; i++ {
		o, _ := st.nextOp()
		if o.index() != 0 { // the hottest group
			continue
		}
		req := rb.build(uint32(i), o, 1)
		seen := map[string]bool{}
		for _, c := range req.Batch {
			seen[c.Key] = true
		}
		if len(seen) != w.groupKeys {
			t.Fatalf("batch names %d distinct keys, want %d", len(seen), w.groupKeys)
		}
		firstShardParity[shardOf(req.Batch[0].Key, w.shards)%2]++
	}
	if firstShardParity[0] == 0 || firstShardParity[1] == 0 {
		t.Errorf("group 0's batches start on shards of one parity only: %v", firstShardParity)
	}
}

func TestPercentileIsExact(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1) // 1..1000
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.001, 1}, {0.0001, 1}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile([]int64{5, 7, 100}, 0.99); got != 100 {
		t.Errorf("p99 of three samples = %d, want the largest", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25] in Python;
// the driver judges spread with that function.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// okServer answers every request frame with a bare OK of the same id and
// op; after stallAfter requests it stops reading for stall, once.
func okServer(t *testing.T, stallAfter int, stall time.Duration) net.Listener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
		var buf, out []byte
		for n := 0; ; n++ {
			if n == stallAfter {
				bw.Flush()
				time.Sleep(stall)
			}
			payload, err := wire.ReadFrame(br, buf)
			if err != nil {
				return
			}
			buf = payload[:0]
			req, err := wire.DecodeRequest(payload)
			if err != nil {
				return
			}
			out, _ = wire.AppendResponse(out[:0], &wire.Response{ID: req.ID, Op: req.Op, Result: wire.OKResult()})
			wire.WriteFrame(bw, out)
			if br.Buffered() == 0 {
				bw.Flush()
			}
		}
	}()
	return ln
}

// stallOnce blocks one Write for d once at has passed.
type stallOnce struct {
	io.Writer
	at   time.Time
	d    time.Duration
	done bool
}

func (s *stallOnce) Write(p []byte) (int, error) {
	if !s.done && time.Now().After(s.at) {
		s.done = true
		time.Sleep(s.d)
	}
	return s.Writer.Write(p)
}

// A sender that stalls sends the requests that fell due meanwhile late, and
// their latency must count from when they were due: about rate × stall
// requests then show a latency of up to the stall, where timing from the
// send would show none.
func TestOpenLoopChargesSenderStall(t *testing.T) {
	ln := okServer(t, -1, 0)
	defer ln.Close()
	const stall = 100 * time.Millisecond
	w := &workload{name: "t", served: true, shards: 16, keys: 64, valLen: 16, readPct: 0, depth: 4, rate: 2000}
	r := newServedRun(w, 1)
	r.conns = r.conns[:1]
	if err := r.connect(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer r.close()
	c := r.conns[0]
	c.bw = bufio.NewWriter(&stallOnce{Writer: c.nc, at: time.Now().Add(150 * time.Millisecond), d: stall})

	_, res := r.runPhase(phaseOpen, 500*time.Millisecond)
	cr := res[0]
	if cr.err != nil || cr.failed != 0 {
		t.Fatalf("phase failed: err=%v failed=%d (%s)", cr.err, cr.failed, cr.firstBad)
	}
	slow := 0
	for _, win := range cr.lat[1].win {
		for _, ns := range win {
			if ns > int64(stall/2) {
				slow++
			}
		}
	}
	// rate × stall/2 = 100 requests fell due in the first half of the stall.
	if slow < 60 || slow > 140 {
		t.Errorf("%d requests show more than half the stall as latency, want about 100", slow)
	}
	if cr.late == 0 {
		t.Errorf("no request counted as sent late despite a %v sender stall", stall)
	}
}

// A server that stalls long enough to fill the in-flight cap makes the
// sender hold requests back, not drop them: once the server recovers every
// request is sent and answered, the held ones with the stall in their
// latency.
func TestOpenLoopRidesOutServerStall(t *testing.T) {
	const stall = 150 * time.Millisecond
	ln := okServer(t, 2000, stall)
	defer ln.Close()
	w := &workload{name: "t", served: true, shards: 16, keys: 64, valLen: 16, readPct: 0, depth: 4, rate: 20000}
	r := newServedRun(w, 1)
	r.conns = r.conns[:1]
	if err := r.connect(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer r.close()

	_, res := r.runPhase(phaseOpen, 600*time.Millisecond)
	cr := res[0]
	if cr.err != nil || cr.failed != 0 || cr.answered != cr.sent {
		t.Fatalf("err=%v failed=%d answered=%d of %d sent (%s)", cr.err, cr.failed, cr.answered, cr.sent, cr.firstBad)
	}
	// rate × stall = 3000 requests fell due during the stall, more than the
	// cap of 1024, and about 20000 × 0.6 over the phase.
	if cr.sent < 10000 {
		t.Errorf("only %d requests sent, want about 12000: held requests were lost", cr.sent)
	}
	var worst int64
	for _, win := range cr.lat[1].win {
		for _, ns := range win {
			worst = max(worst, ns)
		}
	}
	if worst < int64(stall/2) {
		t.Errorf("worst latency %v, want most of the %v stall", time.Duration(worst), stall)
	}
}

// A window the host stole half of counts at the length the program really
// ran for, and a window in which everything was slow is one outlier the
// median passes over.
func TestRatesAreTheMedianWindowNetOfSteal(t *testing.T) {
	const s, ms = int64(time.Second), time.Millisecond
	rs := []reading{
		{t: 0},
		{t: 1 * s, ops: 1000, cpu: 500 * ms},
		{t: 2 * s, ops: 1500, cpu: 750 * ms, steal: 500 * ms}, // half stolen: 500 ops in the 0.5 s left
		{t: 3 * s, ops: 1600, cpu: 950 * ms, steal: 500 * ms}, // slow: 100 ops/s at 2000 us each
		{t: 4 * s, ops: 2600, cpu: 1450 * ms, steal: 500 * ms},
	}
	res := &runResult{Metrics: map[string]metricValue{}}
	if err := res.setRates(rs); err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["throughput_ops_s"].Value; got != 1000 {
		t.Errorf("throughput_ops_s = %v, want 1000", got)
	}
	if got := res.Metrics["cpu_us_per_op"].Value; got != 500 {
		t.Errorf("cpu_us_per_op = %v, want 500", got)
	}
	if got := res.Metrics["host.steal_ratio"].Value; got != 0.125 {
		t.Errorf("host.steal_ratio = %v, want 0.5 s of 4 s", got)
	}
	if err := res.setRates(rs[:1]); err == nil {
		t.Errorf("a phase without a window reported rates")
	}
}

func TestStatsScrapeToleratesMissingFields(t *testing.T) {
	empty, err := parseStats([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	m := layerCounts(empty, empty)
	for _, gone := range []string{"mvstm.commits", "server.fast_read_ratio", "server.queue_us_p50", "core.top_conflict_ratio"} {
		if _, ok := m[gone]; ok {
			t.Errorf("%s reported from an empty STATS reply", gone)
		}
	}
	if v, ok := m["wal.fsyncs"]; !ok || v.Value != 0 {
		t.Errorf("wal.fsyncs = %v, %v for a reply without a wal section, want 0", v.Value, ok)
	}

	start, _ := parseStats([]byte(`{"stm":{"commits":10,"readonly_commits":0,"conflicts":0},"server":{"fast_reads":5}}`))
	end, _ := parseStats([]byte(`{"stm":{"commits":110,"readonly_commits":50,"conflicts":50},"server":{"fast_reads":95,"novel_field":1},"latency":[{"stage":"queue","op":"put","hist":"not base64"}]}`))
	m = layerCounts(start, end)
	if got := m["mvstm.commits"].Value; got != 100 {
		t.Errorf("mvstm.commits = %v, want the difference 100", got)
	}
	if got := m["mvstm.conflict_ratio"].Value; got != 0.25 {
		t.Errorf("mvstm.conflict_ratio = %v, want 50/200", got)
	}
	if _, ok := m["server.fast_read_ratio"]; ok {
		t.Errorf("server.fast_read_ratio reported although fast_read_fallbacks is absent")
	}
	if _, ok := m["server.queue_us_p50"]; ok {
		t.Errorf("server.queue_us_p50 reported from an undecodable histogram")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "m", Unit: "us", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "m", Unit: "ops/s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		d    metricDecl
		want string
	}{
		{"same", steady, steady, lower, verdictOK},
		{"slower latency", steady, []float64{120, 121, 119, 120, 120}, lower, verdictWorse},
		{"faster latency", steady, []float64{80, 81, 79, 80, 80}, lower, verdictOK},
		{"lower throughput", steady, []float64{80, 81, 79, 80, 80}, higher, verdictWorse},
		{"noisy", steady, []float64{80, 150, 60, 130, 100}, lower, verdictUnresolved},
	} {
		if _, _, _, _, got := judge(tc.a, tc.b, tc.d); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSmoke runs all four workloads, traced, with phases of a fraction of a
// second: it measures nothing, it checks that the oracles pass and every
// part of a run works against the real wtfd binary.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs wtfd")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDecl(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var report bytes.Buffer
	cfg := &config{root: root, buildDir: dir, outDir: filepath.Join(dir, "out"), seed: 5, trace: true,
		warm: 100 * time.Millisecond, closed: 300 * time.Millisecond, open: 300 * time.Millisecond,
		setupReps: 1, ladderOps: 2000, rungBudget: 200 * time.Millisecond, bankChunks: 256, report: &report}
	if cfg.wtfdBin, err = buildWtfd(root, dir); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		var res *runResult
		if w.served {
			res, err = runServed(cfg, w)
		} else {
			res, err = runBank(cfg, w)
		}
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s: an oracle failed (%d of %d ops failed): %s", w.name, res.Failed, res.Attempted, strings.Join(res.Notes, "; "))
		} else if res.Failed != 0 {
			// Refusals, not wrong answers: a slow or busy machine (the race
			// detector) produces them.
			t.Logf("%s: %d of %d ops failed without an oracle violation", w.name, res.Failed, res.Attempted)
		}
		line, err := res.lastLine(decl)
		if err != nil || !strings.Contains(line, `"correct":true`) {
			t.Errorf("%s: last line %q, %v", w.name, line, err)
		}
		for _, name := range []string{"throughput_ops_s", "cpu_us_per_op", "mvstm.txn_self_ns", "mvstm.readlatest_ns"} {
			if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
				t.Errorf("%s: %s = %v (present %v), want > 0", w.name, name, m.Value, ok)
			}
		}
	}
}
