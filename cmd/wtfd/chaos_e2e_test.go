package main

// Crash rows of the chaos conformance sweep: the in-process sweep
// (internal/chaos) covers transport faults, but a kill -9 can only be
// tested against the real binary — an in-process "crash" would leak the
// dead server's goroutines into the test. Each schedule serves a chaos
// workload on a fixed port, SIGKILLs the daemon mid-schedule, restarts it
// on the same data directory, and lets the workload's retry/backoff carry
// it across the outage. Once the workload is done the restarted daemon is
// stopped and the served-history checker (internal/chaos) judges what the
// clients saw against the log both lifetimes wrote: under -fsync group or
// always, an acknowledged write the log does not hold is a durability lie.

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"wtftm/internal/chaos"
	"wtftm/internal/client"
)

// freePort reserves an ephemeral port and releases it for the daemon to
// bind, so the workload has one stable address across the restart.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestCrashConformanceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildWTFD(t)
	seeds := 8
	if testing.Verbose() {
		t.Logf("crash sweep: %d seeds x {group, always}", seeds)
	}
	for _, fsync := range []string{"group", "always"} {
		t.Run(fsync, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < uint64(seeds); seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					runCrashSchedule(t, bin, fsync, seed)
				})
			}
		})
	}
}

// runCrashSchedule is one crash row: workload under mild latency chaos,
// kill -9 mid-schedule, restart, oracle verdict. A failing run replays from
// its printed seed (the fault schedule, the op mix and the kill point are
// all derived from it).
func runCrashSchedule(t *testing.T, bin, fsync string, seed uint64) {
	dataDir := filepath.Join(t.TempDir(), "data")
	addr := freePort(t)
	flags := []string{"-data-dir", dataDir, "-fsync", fsync, "-shards", "4",
		"-segment-bytes", "65536", "-listen", addr}

	// startWTFD's default -listen 127.0.0.1:0 comes first; the fixed
	// address in flags repeats the flag, and the last occurrence wins.
	start := func() *wtfdProc { return startWTFD(t, bin, flags...) }
	p1 := start()

	// The slow-client plan stretches the schedule so the kill lands inside
	// it; the kill delay itself is seed-derived so different seeds crash
	// the daemon at different points of the workload.
	plan, err := chaos.Scenario("slow-client", seed)
	if err != nil {
		t.Fatal(err)
	}
	killAfter := time.Duration(60+10*int64(seed%8)) * time.Millisecond

	var (
		wg        sync.WaitGroup
		rep       *chaos.Report
		restarted = make(chan *wtfdProc, 1)
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, err = chaos.RunWorkload(chaos.WorkloadConfig{
			Addr:    addr,
			Dial:    chaos.NewInjector(plan).Dialer(),
			Workers: 2,
			Ops:     80,
			Seed:    seed ^ 0xc4a5,
			Retry: client.RetryPolicy{
				MaxAttempts: 4,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  8 * time.Millisecond,
			},
			OpTimeout: time.Second,
			// The kill -9 wipes the server's in-memory exactly-once
			// table; a CAS resend straddling the crash legally observes
			// its own first effect.
			CrashTolerant: true,
			Stop: func() (*chaos.Log, error) {
				var p2 *wtfdProc
				select {
				case p2 = <-restarted:
				case <-time.After(time.Minute):
					return nil, fmt.Errorf("the daemon was never restarted")
				}
				if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
					return nil, err
				}
				if err := p2.cmd.Wait(); err != nil {
					return nil, fmt.Errorf("graceful stop: %w", err)
				}
				return &chaos.Log{Dir: dataDir, Shards: 4}, nil
			},
		})
	}()

	time.Sleep(killAfter)
	if kerr := p1.cmd.Process.Kill(); kerr != nil { // SIGKILL: no drain, no flush
		t.Fatalf("kill -9: %v", kerr)
	}
	p1.cmd.Wait()
	restarted <- start() // recover on the same directory and port

	wg.Wait()
	if err != nil {
		t.Fatalf("workload infrastructure (replay: WTFD_CRASH_SEED=%d -fsync %s): %v", seed, fsync, err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle violation (replay: WTFD_CRASH_SEED=%d -fsync %s): %s", seed, fsync, v)
	}
	if rep.Acked == 0 {
		t.Errorf("seed %d: nothing acked across the crash — retry/backoff never carried the workload", seed)
	}
}
