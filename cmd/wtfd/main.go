// Command wtfd is a sharded transactional key-value store daemon that
// serves the WTF-TM futures engine over TCP (internal/server): every request
// is one atomic transaction of the engine, a MULTI batch over any shards
// included, and no request submits a future.
//
// Usage:
//
//	wtfd [-listen addr] [-shards n] [-buckets n] [-executors n]
//	     [-idle-timeout d] [-max-inflight n] [-ordering wo|so]
//	     [-data-dir dir] [-fsync always|group|off] [-snapshot-every n]
//	     [-segment-bytes n] [-http addr] [-slow-ms n]
//
// The -ordering flag sets the engine's future semantics: wo (weakly ordered,
// the paper's WTF-TM) or so (strongly ordered, the JTF baseline). No served
// request submits a future, so the setting reaches no served transaction;
// STATS echoes it.
//
// -data-dir enables durability (DESIGN.md §11): the store keeps one
// write-ahead log (dir/wal, one record per commit unit, so a cross-shard
// MULTI is durable whole or not at all) and each shard keeps rolling
// snapshots (dir/shard-NNN); boot recovers the store from them, and writes
// are acknowledged only once they satisfy the -fsync policy — group
// (default) runs one fsync of the log per ack cycle, in the ack daemon,
// which holds the cycle open up to 1 ms for more commits to join while
// other requests are in flight, and sends every answer that reports a
// logged write, a MULTI's and an exactly-once resend's included, once that
// fsync is done; always fsyncs every append; off defers syncing to segment
// rotation and shutdown (a power cut may lose the unsynced tail, a graceful
// shutdown loses nothing). A directory written with one log per shard
// (shard-NNN/wal-*.seg) is refused. -snapshot-every checkpoints a shard
// after that many log records carrying its writes (0 = default 65536,
// negative = never); -segment-bytes sets the log rotation threshold. The
// durability flags (-fsync, -snapshot-every, -segment-bytes) are rejected
// without -data-dir: silently ignoring them would let an operator believe a
// memory-only daemon was fsyncing.
//
// Single-key GETs are served lock-free from the connection read loop — no
// executor hop, no transaction — with a per-connection watermark preserving
// read-your-writes and monotonic reads (DESIGN.md §13); a GET the watermark
// declines goes through its shard's executor like any other command. There
// is one configuration: group commit, fast reads, deferred acks and the
// exactly-once table are always on, and that configuration is the one the
// served-history checker (internal/chaos) judges from outside.
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
// Prometheus-text /metrics, JSON /debug/wtfd/stats (the document the STATS
// wire op returns, WAL section included), the slow-request flight
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
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers, served via -http
	"os"
	"os/signal"
	"syscall"

	"wtftm"
	"wtftm/internal/server"
	"wtftm/internal/wal"
)

// runOpts is everything parseArgs produces that is not server configuration.
type runOpts struct {
	listen    string
	httpAddr  string // observability endpoints + pprof (-http)
	ordering  string // echoed in the banner
	fsyncName string
}

// parseArgs declares wtfd's flags on fs and builds the server configuration
// from argv (without the program name). All validation lives here so tests
// can drive it as a function — and read the flag surface back off fs; main
// only translates an error into exit status 2.
func parseArgs(fs *flag.FlagSet, args []string) (server.Config, runOpts, error) {
	var (
		listen      = fs.String("listen", "127.0.0.1:7070", "TCP listen address")
		shards      = fs.Int("shards", 16, "store shard count (the commit-lock and snapshot unit)")
		buckets     = fs.Int("buckets", 64, "hash buckets per shard")
		executors   = fs.Int("executors", 0, "shard-affine executor count (0 = GOMAXPROCS, capped at shards)")
		idleTimeout = fs.Duration("idle-timeout", 0, "reap connections silent this long (0 = default 2m, negative = never)")
		maxInFlight = fs.Int("max-inflight", 0, "shed store requests with BUSY beyond this many in flight (0 = default 4096, negative = unbounded)")
		ordering    = fs.String("ordering", "wo", "futures ordering semantics: wo|so")
		dataDir     = fs.String("data-dir", "", "durability directory: one WAL + per-shard snapshots, recovered on boot (empty = memory-only)")
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
		SlowMS:        *slowMS,
		Shards:        *shards,
		Buckets:       *buckets,
		Executors:     *executors,
		IdleTimeout:   *idleTimeout,
		MaxInFlight:   *maxInFlight,
		DataDir:       *dataDir,
		SnapshotEvery: *snapEvery,
		SegmentBytes:  *segBytes,
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

	opts := runOpts{
		listen:    *listen,
		httpAddr:  *httpAddr,
		ordering:  *ordering,
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
	fmt.Fprintf(os.Stderr, "wtfd: serving on %s (shards=%d ordering=%s %s)\n",
		s.Addr(), cfg.Shards, opts.ordering, durable)

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
	fmt.Fprintln(os.Stderr, "wtfd: bye")
}
