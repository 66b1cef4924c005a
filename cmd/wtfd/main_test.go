package main

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"wtftm"
	"wtftm/internal/server"
	"wtftm/internal/wal"
)

// TestParseArgs drives flag parsing and validation as a function — every
// rejection an operator can hit, and the config a good command line builds.
func TestParseArgs(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string // substring; "" = must succeed
		check   func(t *testing.T, got parsed)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, got parsed) {
				if got.cfg.Shards != 16 || got.cfg.Buckets != 64 {
					t.Errorf("default shards/buckets = %d/%d", got.cfg.Shards, got.cfg.Buckets)
				}
				if got.opts.listen != "127.0.0.1:7070" {
					t.Errorf("default listen = %q", got.opts.listen)
				}
				if got.cfg.Fsync != wal.SyncGroup {
					t.Errorf("default fsync = %v", got.cfg.Fsync)
				}
				if got.cfg.DisableFastReads {
					t.Error("fast reads disabled by default")
				}
			},
		},
		{
			name: "fast reads opt-out",
			args: []string{"-fast-reads=false"},
			check: func(t *testing.T, got parsed) {
				if !got.cfg.DisableFastReads {
					t.Error("-fast-reads=false did not set DisableFastReads")
				}
			},
		},
		{
			name: "full durable config",
			args: []string{"-data-dir", "d", "-fsync", "always",
				"-snapshot-every", "100", "-segment-bytes", "4096",
				"-idle-timeout", "30s", "-max-inflight", "128",
				"-ordering", "so", "-atomicity", "gac"},
			check: func(t *testing.T, got parsed) {
				if got.cfg.Fsync != wal.SyncAlways || got.cfg.DataDir != "d" {
					t.Errorf("durable cfg = %+v", got.cfg)
				}
				if got.cfg.IdleTimeout != 30*time.Second || got.cfg.MaxInFlight != 128 {
					t.Errorf("idle/inflight = %v/%d", got.cfg.IdleTimeout, got.cfg.MaxInFlight)
				}
				if got.cfg.Ordering != wtftm.SO || got.cfg.Atomicity != wtftm.GAC {
					t.Errorf("ordering/atomicity = %v/%v", got.cfg.Ordering, got.cfg.Atomicity)
				}
			},
		},
		{
			name: "negative idle-timeout and max-inflight are explicit disables",
			args: []string{"-idle-timeout", "-1s", "-max-inflight", "-1"},
			check: func(t *testing.T, got parsed) {
				if got.cfg.IdleTimeout >= 0 || got.cfg.MaxInFlight >= 0 {
					t.Errorf("disables not passed through: %v/%d", got.cfg.IdleTimeout, got.cfg.MaxInFlight)
				}
			},
		},
		{
			name: "http flag sets the observability address",
			args: []string{"-http", "127.0.0.1:9090", "-slow-ms", "5"},
			check: func(t *testing.T, got parsed) {
				if got.opts.httpAddr != "127.0.0.1:9090" {
					t.Errorf("httpAddr = %q", got.opts.httpAddr)
				}
				if got.cfg.SlowMS != 5 {
					t.Errorf("SlowMS = %d, want 5", got.cfg.SlowMS)
				}
			},
		},
		// A command line written for an older wtfd must fail loudly, not run
		// with a setting silently dropped.
		{name: "retired -pprof", args: []string{"-pprof", "127.0.0.1:9091"}, wantErr: "flag provided but not defined"},
		{name: "retired -group-limit", args: []string{"-group-limit", "64"}, wantErr: "flag provided but not defined"},
		{name: "retired -flush-window", args: []string{"-flush-window", "50us"}, wantErr: "flag provided but not defined"},
		{name: "retired -writer-queue", args: []string{"-writer-queue", "128"}, wantErr: "flag provided but not defined"},
		{name: "retired -commit-delay", args: []string{"-data-dir", "d", "-commit-delay", "2ms"}, wantErr: "flag provided but not defined"},
		{
			name: "negative slow-ms disables the flight recorder",
			args: []string{"-slow-ms", "-1"},
			check: func(t *testing.T, got parsed) {
				if got.cfg.SlowMS >= 0 {
					t.Errorf("SlowMS = %d, want negative passed through", got.cfg.SlowMS)
				}
			},
		},
		{name: "bad fsync", args: []string{"-data-dir", "d", "-fsync", "sometimes"}, wantErr: "sync policy"},
		{name: "bad ordering", args: []string{"-ordering", "chaotic"}, wantErr: "-ordering"},
		{name: "bad atomicity", args: []string{"-atomicity", "none"}, wantErr: "-atomicity"},
		{name: "zero shards", args: []string{"-shards", "0"}, wantErr: "-shards"},
		{name: "negative shards", args: []string{"-shards", "-4"}, wantErr: "-shards"},
		{name: "zero buckets", args: []string{"-buckets", "0"}, wantErr: "-buckets"},
		{name: "negative executors", args: []string{"-executors", "-1"}, wantErr: "-executors"},
		{name: "negative stats", args: []string{"-stats", "-5s"}, wantErr: "-stats"},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: "bogus"},
		{name: "positional argument", args: []string{"extra"}, wantErr: "unexpected argument"},
		{name: "fsync without data-dir", args: []string{"-fsync", "always"}, wantErr: "require -data-dir"},
		{name: "snapshot-every without data-dir", args: []string{"-snapshot-every", "10"}, wantErr: "require -data-dir"},
		{name: "segment-bytes without data-dir", args: []string{"-segment-bytes", "1024"}, wantErr: "require -data-dir"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := flag.NewFlagSet("wtfd", flag.ContinueOnError)
			fs.SetOutput(io.Discard) // rejections print usage
			cfg, opts, err := parseArgs(fs, tt.args)
			if tt.wantErr != "" {
				if err == nil {
					t.Fatalf("parseArgs(%q) succeeded, want error containing %q", tt.args, tt.wantErr)
				}
				if !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("parseArgs(%q) error = %v, want substring %q", tt.args, err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseArgs(%q): %v", tt.args, err)
			}
			if tt.check != nil {
				tt.check(t, parsed{cfg: cfg, opts: opts})
			}
		})
	}
}

// parsed bundles parseArgs' results for the check callbacks.
type parsed struct {
	cfg  server.Config
	opts runOpts
}

// TestFlagSurface pins wtfd's flag names. A new flag is an edit to this list,
// which is where it has to be argued: an option earns its place when two
// deployments or benchmark workloads need different values.
func TestFlagSurface(t *testing.T) {
	want := []string{ // 16
		"atomicity", "buckets", "data-dir", "executors", "fast-reads", "fsync",
		"http", "idle-timeout", "listen", "max-inflight", "ordering",
		"segment-bytes", "shards", "slow-ms", "snapshot-every", "stats",
	}
	fs := flag.NewFlagSet("wtfd", flag.ContinueOnError)
	if _, _, err := parseArgs(fs, nil); err != nil {
		t.Fatal(err)
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // sorted by name
	if !slices.Equal(got, want) {
		t.Fatalf("wtfd flags changed:\n got %d %v\nwant %d %v", len(got), got, len(want), want)
	}
}
