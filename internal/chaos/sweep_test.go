// The chaos conformance sweep: seeded fault schedules × fsync policies
// against a real, durable wtfd server, judged by the lost-ack oracle.
//
// Replaying a failure: every failing schedule prints a line like
//
//	WTFD_CHAOS_SCENARIO=reset WTFD_CHAOS_SEED=5 WTFD_CHAOS_FSYNC=group \
//	  WTFD_CHAOS_OPS=10 go test ./internal/chaos/ -run TestChaosReplay -v
//
// after shrinking the op count to the smallest still-failing schedule.
// TestChaosReplay consumes those variables and runs exactly that schedule.
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wtftm/internal/client"
	"wtftm/internal/server"
	"wtftm/internal/wal"
	"wtftm/internal/wire"
)

// sweepSeeds is how many seeds each (scenario, policy) cell runs; trimmed
// under -short so the CI race smoke stays inside its wall-clock budget.
func sweepSeeds() int {
	if testing.Short() {
		return 2
	}
	return 8
}

var sweepPolicies = []struct {
	name string
	pol  wal.SyncPolicy
}{
	{"group", wal.SyncGroup},
	{"always", wal.SyncAlways},
}

// startDurableServer boots a wtfd server backed by an in-memory durable FS
// (real WAL + snapshot code paths, no disk) with chaos-friendly timeouts.
// The returned Log is where the checker finds the server's log once it is
// drained.
func startDurableServer(t testing.TB, pol wal.SyncPolicy) (*server.Server, *Log) {
	t.Helper()
	log := &Log{FS: wal.NewMemFS(), Dir: "chaos-data", Shards: 4}
	s, err := server.New(server.Config{
		Shards:      log.Shards,
		DataDir:     log.Dir,
		FS:          log.FS,
		Fsync:       pol,
		IdleTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(s.Drain)
	return s, log
}

// runSchedule executes one fault schedule against a fresh durable server
// and returns the oracle's report.
func runSchedule(t testing.TB, scenario string, pol wal.SyncPolicy, seed uint64, ops int) *Report {
	t.Helper()
	plan, err := Scenario(scenario, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, log := startDurableServer(t, pol)
	rep, err := RunWorkload(WorkloadConfig{
		Addr:    s.Addr().String(),
		Dial:    NewInjector(plan).Dialer(),
		Workers: 2,
		Ops:     ops,
		Seed:    seed * 0x9e3779b97f4a7c15,
		Retry: client.RetryPolicy{
			MaxAttempts: 10,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		},
		OpTimeout: 2 * time.Second,
		Stop:      func() (*Log, error) { s.Drain(); return log, nil },
	})
	if err != nil {
		t.Fatalf("workload infrastructure failed: %v", err)
	}
	return rep
}

// reportFailure shrinks a failing schedule to the smallest op count that
// still fails and prints the replay incantation.
func reportFailure(t *testing.T, scenario, polName string, pol wal.SyncPolicy, seed uint64, ops int, rep *Report) {
	t.Helper()
	minOps, minRep := ops, rep
	for half := ops / 2; half >= 5; half /= 2 {
		r := runSchedule(t, scenario, pol, seed, half)
		if !r.Failed() {
			break
		}
		minOps, minRep = half, r
	}
	t.Errorf("chaos oracle violation (%d at %d ops, shrunk from %d):\n  %s\nreplay with:\n  WTFD_CHAOS_SCENARIO=%s WTFD_CHAOS_SEED=%d WTFD_CHAOS_FSYNC=%s WTFD_CHAOS_OPS=%d go test ./internal/chaos/ -run TestChaosReplay -v",
		len(minRep.Violations), minOps, ops, minRep.Violations[0],
		scenario, seed, polName, minOps)
}

// TestChaosConformanceSweep is the tentpole acceptance test: every oracle
// scenario × fsync policy × seed must finish with zero violations. The
// corrupt scenario is excluded (no frame checksums means corruption can
// legally change answers); it gets its own survival test below.
func TestChaosConformanceSweep(t *testing.T) {
	for _, scenario := range []string{"reset", "partial-write", "slow-client", "partition"} {
		for _, pc := range sweepPolicies {
			t.Run(scenario+"/"+pc.name, func(t *testing.T) {
				t.Parallel()
				for seed := uint64(0); seed < uint64(sweepSeeds()); seed++ {
					const ops = 40
					rep := runSchedule(t, scenario, pc.pol, seed, ops)
					if rep.Failed() {
						reportFailure(t, scenario, pc.name, pc.pol, seed, ops, rep)
						continue
					}
					if rep.Acked == 0 {
						t.Errorf("seed %d: no operation was ever acked — the schedule starved the workload", seed)
					}
				}
			})
		}
	}
}

// TestChaosFastReadConformance pins the read fast path's interaction with
// faults and durability: lock-free read-loop GETs interleaved with
// group-committed durable writes, through an injected-fault transport with
// retrying clients, must still tell one serializable story that respects
// each session's order — the checker judges exactly that. The STATS
// assertion closes the loophole of passing by never taking the fast path:
// the sweep must have actually served reads from the connection loop, not
// quietly routed everything to executors.
func TestChaosFastReadConformance(t *testing.T) {
	for _, scenario := range []string{"reset", "slow-client"} {
		t.Run(scenario, func(t *testing.T) {
			plan, err := Scenario(scenario, 11)
			if err != nil {
				t.Fatal(err)
			}
			s, log := startDurableServer(t, wal.SyncGroup)
			var stats *wire.StatsReply
			rep, err := RunWorkload(WorkloadConfig{
				Addr:    s.Addr().String(),
				Dial:    NewInjector(plan).Dialer(),
				Workers: 3,
				Ops:     60,
				Seed:    0x9e3779b97f4a7c15,
				Retry: client.RetryPolicy{
					MaxAttempts: 10,
					BaseBackoff: 2 * time.Millisecond,
					MaxBackoff:  20 * time.Millisecond,
				},
				OpTimeout: 2 * time.Second,
				Stop: func() (*Log, error) {
					clean := client.New(client.Options{Addr: s.Addr().String(), Conns: 1})
					defer clean.Close()
					var err error
					if stats, err = clean.Stats(); err != nil {
						return nil, err
					}
					s.Drain()
					return log, nil
				},
			})
			if err != nil {
				t.Fatalf("workload: %v", err)
			}
			if rep.Failed() {
				t.Fatalf("violations with fast reads under %s: %v", scenario, rep.Violations)
			}
			if rep.Acked == 0 {
				t.Fatal("nothing acked: the schedule starved the workload")
			}
			if stats.Server.FastReads == 0 {
				t.Fatal("FastReads = 0: every GET fell back to the executor path, fast path untested")
			}
		})
	}
}

// TestChaosReplay re-runs one schedule named by the WTFD_CHAOS_* env vars
// (printed by a failing sweep). Without them it is a no-op.
func TestChaosReplay(t *testing.T) {
	scenario := os.Getenv("WTFD_CHAOS_SCENARIO")
	if scenario == "" {
		t.Skip("set WTFD_CHAOS_SCENARIO / WTFD_CHAOS_SEED / WTFD_CHAOS_FSYNC / WTFD_CHAOS_OPS to replay a failing schedule")
	}
	seed, err := strconv.ParseUint(os.Getenv("WTFD_CHAOS_SEED"), 10, 64)
	if err != nil {
		t.Fatalf("WTFD_CHAOS_SEED: %v", err)
	}
	pol, err := wal.ParseSyncPolicy(os.Getenv("WTFD_CHAOS_FSYNC"))
	if err != nil {
		t.Fatalf("WTFD_CHAOS_FSYNC: %v", err)
	}
	ops := 40
	if v := os.Getenv("WTFD_CHAOS_OPS"); v != "" {
		if ops, err = strconv.Atoi(v); err != nil {
			t.Fatalf("WTFD_CHAOS_OPS: %v", err)
		}
	}
	rep := runSchedule(t, scenario, pol, seed, ops)
	t.Logf("replay: ops=%d acked=%d ambiguous=%d retries=%d redials=%d p99=%v",
		rep.Ops, rep.Acked, rep.Ambiguous, rep.Retries, rep.Redials, rep.P99)
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestChaosSweepSmoke is the CI race-detector smoke: one fixed seed through
// the two highest-signal scenarios, group policy, small workload. ci.sh
// runs it with -race under a wall-clock budget.
func TestChaosSweepSmoke(t *testing.T) {
	for _, scenario := range []string{"reset", "partition"} {
		t.Run(scenario, func(t *testing.T) {
			rep := runSchedule(t, scenario, wal.SyncGroup, 1, 30)
			if rep.Failed() {
				reportFailure(t, scenario, "group", wal.SyncGroup, 1, 30, rep)
			}
		})
	}
}

// TestChaosNoGoroutineLeaks runs one schedule per scenario serially and
// asserts the process goroutine count returns to baseline: neither the
// server nor the retrying clients may strand readers, executors or ack
// daemons behind injected faults.
func TestChaosNoGoroutineLeaks(t *testing.T) {
	for _, scenario := range []string{"reset", "partial-write", "slow-client", "partition"} {
		t.Run(scenario, func(t *testing.T) {
			before := runtime.NumGoroutine()
			// Cleanups run LIFO: registering the check before runSchedule
			// registers the server's Drain means the check runs after the
			// server has fully drained.
			t.Cleanup(func() {
				deadline := time.Now().Add(5 * time.Second)
				for {
					if after := runtime.NumGoroutine(); after <= before {
						return
					}
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<20)
						n := runtime.Stack(buf, true)
						t.Fatalf("goroutine leak: %d before, %d after\n%s",
							before, runtime.NumGoroutine(), buf[:n])
					}
					time.Sleep(10 * time.Millisecond)
				}
			})
			rep := runSchedule(t, scenario, wal.SyncGroup, 2, 30)
			if rep.Failed() {
				t.Fatalf("oracle violations: %v", rep.Violations)
			}
		})
	}
}

// TestCorruptionSurvival: with 5% of delivered response bytes corrupted the
// oracle cannot judge answers (no frame checksums), but the server must
// survive arbitrary garbage — no panic, no hang — and serve a clean client
// correctly afterwards.
func TestCorruptionSurvival(t *testing.T) {
	plan, err := Scenario("corrupt", 3)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := startDurableServer(t, wal.SyncGroup)
	cl := client.New(client.Options{
		Addr:  s.Addr().String(),
		Conns: 2,
		Dial:  NewInjector(plan).Dialer(),
		Retry: client.RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond},
	})
	for i := 0; i < 60; i++ {
		// Outcomes are unjudgeable; termination and server health are the
		// assertions. A corrupted response ID can misroute a reply and
		// leave a call waiting forever, so every op carries its own short
		// deadline — without it this loop wedges on the first misroute.
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		cl.PutCtx(ctx, fmt.Sprintf("g%d", i%10), strconv.Itoa(i))
		cancel()
		if i%5 == 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			cl.GetCtx(ctx, fmt.Sprintf("g%d", i%10))
			cancel()
		}
	}
	cl.Close()

	clean := client.New(client.Options{Addr: s.Addr().String(), Conns: 1})
	defer clean.Close()
	if err := clean.Ping(); err != nil {
		t.Fatalf("server unhealthy after corruption storm: %v", err)
	}
	if err := clean.Put("after", "ok"); err != nil {
		t.Fatalf("put after corruption storm: %v", err)
	}
	if v, ok, err := clean.Get("after"); err != nil || !ok || v != "ok" {
		t.Fatalf("get after corruption storm: %q %v %v", v, ok, err)
	}
}

// gatedFS is a MemFS whose file fsyncs wait while the gate is shut. Under
// -fsync always a write's executor fsyncs before the write is answered, so a
// shut gate holds that write in flight for as long as the test needs.
type gatedFS struct {
	*wal.MemFS
	shut    atomic.Bool
	held    chan struct{} // signalled when an fsync finds the gate shut
	release chan struct{} // closed to let the held fsyncs through
}

func (g *gatedFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := g.MemFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

type gatedFile struct {
	wal.File
	g *gatedFS
}

func (f gatedFile) Sync() error {
	if f.g.shut.Load() {
		select {
		case f.g.held <- struct{}{}:
		default:
		}
		<-f.g.release
	}
	return f.File.Sync()
}

// shedCount reads the server's BUSY refusal counter in process, without a
// request an executor would have to serve.
func shedCount(s *server.Server) (int64, error) {
	var b bytes.Buffer
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		return 0, err
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "wtfd_shed_total "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, errors.New("no wtfd_shed_total in the metrics")
}

// TestShedAndRetryUnderResets is the overload acceptance criterion: with 5%
// connection resets AND a server forced into shedding (MaxInFlight 1),
// every worker's workload still completes through retry/backoff, p99 stays
// bounded, and STATS reports the sheds.
//
// The overload is made, not hoped for: four workers against one admission
// slot overlap only when the scheduler interleaves them, which at
// GOMAXPROCS 1 it mostly does not. So a write outside the workload takes
// the slot first and stays in flight — its fsync waits on a shut gate —
// until the server has refused several workload requests; then the gate
// opens and the workers retry their way through the rest of the run.
func TestShedAndRetryUnderResets(t *testing.T) {
	plan, err := Scenario("reset", 4) // ResetProb 0.05
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedFS{MemFS: wal.NewMemFS(), held: make(chan struct{}, 1), release: make(chan struct{})}
	s, err := server.New(server.Config{Shards: 4, MaxInFlight: 1, DataDir: "d", FS: gate, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	gate.shut.Store(true)
	hog := client.New(client.Options{Addr: s.Addr().String(), Conns: 1})
	defer hog.Close()
	hogDone := make(chan error, 1)
	go func() { hogDone <- hog.Put("hog", "h") }()
	<-gate.held // the hog's write holds the one admission slot
	go func() {
		defer close(gate.release)
		defer gate.shut.Store(false)
		// A BUSY answer can die with a reset connection before its client
		// reads it, so wait for several refusals, not one. The deadline only
		// bounds a broken run; the assertions below then report it.
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			n, err := shedCount(s)
			if err != nil {
				t.Error(err)
				return
			}
			if n >= 8 {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	rep, err := RunWorkload(WorkloadConfig{
		Addr:    s.Addr().String(),
		Dial:    NewInjector(plan).Dialer(),
		Workers: 4,
		Ops:     40,
		Seed:    99,
		Retry: client.RetryPolicy{
			MaxAttempts: 12,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  15 * time.Millisecond,
		},
		OpTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("oracle violations under shed+reset: %v", rep.Violations)
	}
	if rep.Acked == 0 {
		t.Fatal("nothing acked: retry/backoff did not carry the workload")
	}
	if rep.P99 > time.Second {
		t.Fatalf("p99 = %v, want <= 1s under 5%% resets", rep.P99)
	}

	clean := client.New(client.Options{Addr: s.Addr().String(), Conns: 1})
	defer clean.Close()
	stats, err := clean.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Server.MaxInFlight != 1 {
		t.Fatalf("MaxInFlight in STATS = %d, want 1", stats.Server.MaxInFlight)
	}
	if stats.Server.Shed == 0 {
		t.Fatal("server never shed under MaxInFlight=1 with 4 workers — STATS not reporting BUSY refusals")
	}
	if rep.BusyRetries == 0 {
		t.Fatal("clients never saw BUSY: shedding path untested")
	}
	if err := <-hogDone; err != nil {
		t.Fatalf("the write that held the slot: %v", err)
	}
}
