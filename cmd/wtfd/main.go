// Command wtfd is a sharded transactional key-value store daemon that
// serves the WTF-TM futures engine over TCP (internal/server): every request
// is one atomic transaction, and a MULTI batch fans its per-shard command
// groups out as transactional futures.
//
// Usage:
//
//	wtfd [-listen addr] [-shards n] [-buckets n] [-executors n]
//	     [-idle-timeout d] [-max-inflight n] [-fast-reads=true|false]
//	     [-ordering wo|so] [-atomicity lac|gac] [-stats interval]
//	     [-data-dir dir] [-fsync always|group|off]
//	     [-snapshot-every n] [-segment-bytes n] [-http addr] [-slow-ms n]
//
// The -ordering flag selects the future semantics MULTI batches run under:
// wo (weakly ordered, the paper's WTF-TM) or so (strongly ordered, the JTF
// baseline). -stats periodically prints the server/engine/substrate counter
// snapshot — the same document the STATS wire op returns — to stderr.
//
// -data-dir enables durability (DESIGN.md §11): every shard keeps a
// write-ahead log and rolling snapshots under the directory, boot recovers
// the store from them, and writes are acknowledged only once they satisfy
// the -fsync policy — group (default) runs one coalesced fsync barrier per
// commit group (the ack daemon holds it open 1 ms for more commits to join),
// always fsyncs every append, off defers syncing to segment rotation and
// shutdown (a power cut may lose the unsynced tail, a graceful shutdown
// loses nothing). -snapshot-every checkpoints a shard after that many log
// records (0 = default 65536, negative = never); -segment-bytes sets the
// log rotation threshold. The durability flags (-fsync, -snapshot-every,
// -segment-bytes) are rejected without -data-dir: silently ignoring them
// would let an operator believe a memory-only daemon was fsyncing.
//
// -fast-reads (default on) serves single-key GETs lock-free from the
// connection read loop — no executor hop, no transaction — with a
// per-connection watermark preserving read-your-writes and monotonic reads
// (DESIGN.md §13); -fast-reads=false routes every GET through its shard's
// executor like any other command, which measured ~4% more throughput on a
// half-writes durable load where nearly every GET falls back anyway.
//
// -executors sizes the shard-affine executor pool (each executor owns a
// subset of shards and serializes their single-key requests, coalescing
// whatever is already queued into one commit). -idle-timeout is how long a
// silent connection lives before the server reaps it (default 2m, negative
// = never); -max-inflight caps admitted-but-unanswered requests across all
// connections — beyond it the server sheds store requests with BUSY instead
// of queueing (default 4096, negative = unbounded).
//
// -http serves the observability endpoints on the given address:
// Prometheus-text /metrics, JSON /debug/wtfd/stats, the slow-request flight
// recorder at /debug/wtfd/slow, and net/http/pprof under /debug/pprof/. The
// listener is opened synchronously — a busy port is a startup error, not a
// background log line. -slow-ms sets the flight recorder's slow-request
// threshold in milliseconds (0 = default 20, negative = disable recording);
// SIGQUIT also dumps the recorder to stderr.
//
// wtfd shuts down gracefully on SIGINT/SIGTERM: it refuses new connections,
// completes in-flight transactions, flushes their responses, then exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers, served via -http
	"os"
	"os/signal"
	"syscall"
	"time"

	"wtftm"
	"wtftm/internal/server"
	"wtftm/internal/wal"
)

// runOpts is everything parseArgs produces that is not server configuration.
type runOpts struct {
	listen    string
	stats     time.Duration
	httpAddr  string // observability endpoints + pprof (-http)
	ordering  string // echoed in the banner
	atomicity string
	fsyncName string
}

// parseArgs declares wtfd's flags on fs and builds the server configuration
// from argv (without the program name). All validation lives here so tests
// can drive it as a function — and read the flag surface back off fs; main
// only translates an error into exit status 2.
func parseArgs(fs *flag.FlagSet, args []string) (server.Config, runOpts, error) {
	var (
		listen      = fs.String("listen", "127.0.0.1:7070", "TCP listen address")
		shards      = fs.Int("shards", 16, "store shard count (MULTI fan-out width)")
		buckets     = fs.Int("buckets", 64, "hash buckets per shard")
		executors   = fs.Int("executors", 0, "shard-affine executor count (0 = GOMAXPROCS, capped at shards)")
		idleTimeout = fs.Duration("idle-timeout", 0, "reap connections silent this long (0 = default 2m, negative = never)")
		maxInFlight = fs.Int("max-inflight", 0, "shed store requests with BUSY beyond this many in flight (0 = default 4096, negative = unbounded)")
		fastReads   = fs.Bool("fast-reads", true, "serve single-key GETs lock-free from the connection read loop (false = route every GET through its shard's executor)")
		ordering    = fs.String("ordering", "wo", "futures ordering semantics: wo|so")
		atomicity   = fs.String("atomicity", "lac", "escaping-future atomicity: lac|gac")
		stats       = fs.Duration("stats", 0, "print counter snapshots at this interval (0 = off)")
		dataDir     = fs.String("data-dir", "", "durability directory: per-shard WAL + snapshots, recovered on boot (empty = memory-only)")
		fsync       = fs.String("fsync", "group", "when to fsync the WAL before acking writes: always|group|off")
		snapEvery   = fs.Int64("snapshot-every", 0, "checkpoint a shard after this many WAL records (0 = default 65536, negative = never)")
		segBytes    = fs.Int64("segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = default)")
		httpAddr    = fs.String("http", "", "serve /metrics, /debug/wtfd/* and /debug/pprof/ on this address (empty = off)")
		slowMS      = fs.Int("slow-ms", 0, "flight-record requests slower than this many milliseconds (0 = default 20, negative = off)")
	)
	if err := fs.Parse(args); err != nil {
		return server.Config{}, runOpts{}, err
	}
	if fs.NArg() > 0 {
		return server.Config{}, runOpts{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	if *shards < 1 {
		return server.Config{}, runOpts{}, fmt.Errorf("-shards must be >= 1 (got %d)", *shards)
	}
	if *buckets < 1 {
		return server.Config{}, runOpts{}, fmt.Errorf("-buckets must be >= 1 (got %d)", *buckets)
	}
	if *executors < 0 {
		return server.Config{}, runOpts{}, fmt.Errorf("-executors must be >= 0 (got %d)", *executors)
	}
	if *stats < 0 {
		return server.Config{}, runOpts{}, fmt.Errorf("-stats must be >= 0 (got %v)", *stats)
	}

	// Durability flags without -data-dir describe a WAL that does not
	// exist; reject the contradiction instead of silently ignoring it.
	if *dataDir == "" {
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fsync", "snapshot-every", "segment-bytes":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return server.Config{}, runOpts{}, fmt.Errorf("%s require -data-dir (memory-only daemons have no WAL)", conflict[0])
		}
	}

	cfg := server.Config{
		SlowMS:           *slowMS,
		Shards:           *shards,
		Buckets:          *buckets,
		Executors:        *executors,
		IdleTimeout:      *idleTimeout,
		MaxInFlight:      *maxInFlight,
		DisableFastReads: !*fastReads,
		DataDir:          *dataDir,
		SnapshotEvery:    *snapEvery,
		SegmentBytes:     *segBytes,
	}
	pol, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		return server.Config{}, runOpts{}, err
	}
	cfg.Fsync = pol
	switch *ordering {
	case "wo":
		cfg.Ordering = wtftm.WO
	case "so":
		cfg.Ordering = wtftm.SO
	default:
		return server.Config{}, runOpts{}, fmt.Errorf("unknown -ordering %q (want wo|so)", *ordering)
	}
	switch *atomicity {
	case "lac":
		cfg.Atomicity = wtftm.LAC
	case "gac":
		cfg.Atomicity = wtftm.GAC
	default:
		return server.Config{}, runOpts{}, fmt.Errorf("unknown -atomicity %q (want lac|gac)", *atomicity)
	}

	opts := runOpts{
		listen:    *listen,
		stats:     *stats,
		httpAddr:  *httpAddr,
		ordering:  *ordering,
		atomicity: *atomicity,
		fsyncName: pol.String(),
	}
	return cfg, opts, nil
}

func main() {
	cfg, opts, err := parseArgs(flag.NewFlagSet("wtfd", flag.ContinueOnError), os.Args[1:])
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "wtfd: %v\n", err)
		}
		os.Exit(2)
	}

	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wtfd: %v\n", err)
		os.Exit(1)
	}

	if opts.httpAddr != "" {
		// Open the listener synchronously: an operator who asked for the
		// observability endpoint must learn about a busy port at startup,
		// not from a log line after the daemon is already serving.
		ln, err := net.Listen("tcp", opts.httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wtfd: -http: %v\n", err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.Handle("/", s.DebugHandler())
		mux.Handle("/debug/pprof/", http.DefaultServeMux) // net/http/pprof registrations
		fmt.Fprintf(os.Stderr, "wtfd: http on http://%s/metrics (pprof under /debug/pprof/)\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				fmt.Fprintf(os.Stderr, "wtfd: -http: %v\n", err)
			}
		}()
	}

	if err := s.Listen(opts.listen); err != nil {
		fmt.Fprintf(os.Stderr, "wtfd: %v\n", err)
		os.Exit(1)
	}
	durable := "memory-only"
	if cfg.DataDir != "" {
		durable = fmt.Sprintf("data-dir=%s fsync=%s", cfg.DataDir, opts.fsyncName)
	}
	fmt.Fprintf(os.Stderr, "wtfd: serving on %s (shards=%d ordering=%s atomicity=%s %s)\n",
		s.Addr(), cfg.Shards, opts.ordering, opts.atomicity, durable)

	if opts.stats > 0 {
		go func() {
			for range time.Tick(opts.stats) {
				printStats(s)
			}
		}()
	}

	// SIGQUIT dumps the slow-request flight recorder without stopping the
	// daemon — the "why was that request slow" question answered in the field.
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	go func() {
		for range sigq {
			if err := s.WriteSlowDump(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "wtfd: slow dump: %v\n", err)
			}
			fmt.Fprintln(os.Stderr)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "wtfd: draining...")
	s.Drain()
	printStats(s)
	fmt.Fprintln(os.Stderr, "wtfd: bye")
}

// printStats dumps the engine and substrate counters through the wtftm
// facade snapshots — the process-local view of what the STATS op serves.
func printStats(s *server.Server) {
	var (
		engine wtftm.StatsSnapshot    = s.System().Stats().Snapshot()
		stm    wtftm.STMStatsSnapshot = s.STM().Stats().Snapshot()
	)
	out, _ := json.Marshal(map[string]any{"engine": engine, "stm": stm})
	fmt.Fprintf(os.Stderr, "wtfd: stats %s\n", out)
}
