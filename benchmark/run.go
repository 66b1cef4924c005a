package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runServed is one run of a served workload: set up (generate, start,
// preload — repeated, median reported), warm up, closed loop, in a traced
// run open loop, scrape, and for a durable workload kill -9, recover and
// verify.
func runServed(cfg *config, w *workload) (*runResult, error) {
	res := newRunResult(cfg, w)
	work := filepath.Join(cfg.outDir, "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dataDir := filepath.Join(work, "data")
	// wtfd takes its executor count from GOMAXPROCS, which is 1 here; it is
	// given the 2 it would pick on this host unconfined, so that requests
	// still queue on, and transactions still meet from, two executors.
	args := append([]string{"-executors", "2"}, w.flags...)
	if w.durable {
		args = append(args, "-data-dir", dataDir)
	}

	// Set-up, repeated: generate the inputs — streams, keys and values all
	// come from the seed before anything is timed against the server —
	// start wtfd and preload every key. The median is reported; all but the
	// last set-up are thrown away. Building wtfd is not part of it: how long
	// `go build` takes says more about the build cache than about the code.
	var (
		run       *servedRun
		srv       *child
		setups    []float64
		userBytes int64
	)
	stopSrv := func() {
		if srv != nil {
			srv.kill()
			srv = nil
		}
	}
	defer stopSrv()
	for i := 0; i < cfg.setupReps; i++ {
		stopSrv()
		os.RemoveAll(dataDir)
		t0 := time.Now()
		run = newServedRun(w, cfg.seed)
		var err error
		if srv, err = startWtfd(cfg.wtfdBin, args); err != nil {
			return nil, err
		}
		if userBytes, err = preload(w, run.ks, srv.addr); err != nil {
			return nil, fmt.Errorf("preload: %w (wtfd: %s)", err, srv.stderrTail())
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups), "s", int64(len(setups)))
	res.set("build_s", cfg.buildS, "s", 1)
	res.note("setup_s is the median of %d × (generate inputs + start wtfd + preload); build_s, the `go build ./cmd/wtfd` of this invocation, is apart from it", len(setups))

	if err := run.connect(srv.addr); err != nil {
		return nil, err
	}
	defer run.close()
	fail := func(crs []*connResult) error {
		for _, cr := range crs {
			if cr.err != nil {
				return fmt.Errorf("%w (wtfd: %s)", cr.err, srv.stderrTail())
			}
		}
		return nil
	}

	_, warm := run.runPhase(phaseClosed, cfg.warm)
	if err := fail(warm); err != nil {
		return nil, err
	}
	statsStart, err := scrapeStats(srv.addr)
	if err != nil {
		return nil, err
	}

	// Closed loop: throughput and CPU per op, metered beside the phase.
	m := &meter{ops: run.completed.Load, pin: cfg.pin, cpu: func() time.Duration {
		d, _ := procCPU(srv.pid()) // a server that is gone fails the phase
		return d
	}}
	readings := make(chan []reading, 1)
	selfCPU0 := selfCPU()
	go func() { readings <- m.watch(cfg.closed) }()
	_, closed := run.runPhase(phaseClosed, cfg.closed)
	selfCPU1 := selfCPU()
	rs := <-readings
	if err := fail(closed); err != nil {
		return nil, err
	}
	if err := res.setRates(rs); err != nil {
		return nil, fmt.Errorf("%w (wtfd: %s)", err, srv.stderrTail())
	}
	srvCPU, genCPU := rs[len(rs)-1].cpu-rs[0].cpu, selfCPU1-selfCPU0
	res.set("gen.cpu_share", float64(genCPU)/float64(genCPU+srvCPU), "ratio", rs[len(rs)-1].ops-rs[0].ops)

	// Open loop: latency from the due time, reads and writes apart.
	var open []*connResult
	if cfg.open > 0 {
		_, open = run.runPhase(phaseOpen, cfg.open)
		if err := fail(open); err != nil {
			return nil, err
		}
		var sent, late int64
		var lat [2][]*windowed
		for _, cr := range open {
			sent += cr.sent
			late += cr.late
			lat[0] = append(lat[0], cr.lat[0])
			lat[1] = append(lat[1], cr.lat[1])
		}
		res.setLatency("read", summarize(lat[0]))
		res.setLatency("write", summarize(lat[1]))
		lateRatio := 0.0
		if sent > 0 {
			lateRatio = float64(late) / float64(sent)
		}
		res.set("gen.late_ratio", lateRatio, "ratio", sent)
		if lateRatio > 0.01 {
			res.note("GENERATOR-BOUND: %.2f%% of open-loop requests were sent more than 1 ms late; the latencies above describe the generator, not the server", 100*lateRatio)
		}
		res.note("open loop: offered %.0f ops/s, sent %d requests over %d connections", w.rate, sent, len(run.conns))
	} else {
		res.note("open loop not run: latencies come with -trace 1")
	}
	statsEnd, err := scrapeStats(srv.addr)
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", peakRSSMB(srv.pid()), "MB", 1)

	var violations int64
	for _, crs := range [][]*connResult{warm, closed, open} {
		for _, cr := range crs {
			res.Attempted += cr.attempted
			res.Failed += cr.failed
			violations += cr.violations
			userBytes += cr.userBytes
			if cr.firstBad != "" {
				res.note("failed op: %s", cr.firstBad)
			}
		}
	}

	res.merge(layerCounts(statsStart, statsEnd))

	if w.durable {
		disk := dirBytes(dataDir)
		res.set("disk_bytes_per_user_byte", float64(disk)/float64(userBytes), "ratio", userBytes)
		// kill -9, then restart on the same directory. The OS page cache
		// survives a killed process, so this checks process-crash
		// durability only, not power loss.
		run.close()
		srv.kill()
		t0 := time.Now()
		if srv, err = startWtfd(cfg.wtfdBin, args); err != nil {
			return nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		for !ping(srv.addr) {
			if time.Since(t0) > 60*time.Second {
				return nil, fmt.Errorf("restarted wtfd does not answer PING (wtfd: %s)", srv.stderrTail())
			}
			time.Sleep(time.Millisecond)
		}
		res.set("recovery_s", time.Since(t0).Seconds(), "s", 1)
		checked, bad, first, err := run.verifyRecovered(srv.addr)
		if err != nil {
			return nil, fmt.Errorf("verify after recovery: %w", err)
		}
		res.Attempted += checked
		res.Failed += bad
		violations += bad
		if first != "" {
			res.note("recovery violation: %s", first)
		}
		res.note("recovery: %d keys checked against [acked, issued] after kill -9 (process crash only: the OS cache survives it), %d outside", checked, bad)
		srv.stop() // graceful, so the directory is complete for persist.open_ms
		srv = nil
	} else {
		stopSrv()
	}
	res.Correct = violations == 0
	res.set("failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Attempted)

	if cfg.trace {
		primitives(res)
		dd := ""
		if w.durable {
			dd = dataDir
		}
		if err := servedLadder(cfg, w, run.ks, run.conns[0].st.ops[:cfg.ladderOps], res, dd); err != nil {
			return nil, err
		}
	}
	return res, nil
}
