package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// workload is one named set of inputs. The served ones start a wtfd child
// with flags and drive it over conns raw-wire connections; bank-futures
// drives the futures engine in-process.
type workload struct {
	name string

	served bool
	flags  []string // wtfd flags beyond -listen, -executors (and -data-dir for durable)
	// durable workloads get -data-dir, the kill -9 recovery check and the
	// wal/persist ladder rung.
	durable bool
	shards  int // wtfd's default -shards; multi-hot lays groups across them

	keys    int // single-key workloads: keyspace size
	valLen  int
	readPct int
	// depth is the closed-loop window per connection. It is what keeps the
	// one CPU busy: 16 does where every reply is immediate; mixed-durable
	// needs 256, because its writes wait a millisecond and an fsync for
	// their group commit, the window fills up with them, and a window that
	// is all waiting writes leaves the CPU idle for as long as the host's
	// disk takes — which is the neighbours' business, not the program's.
	depth int

	// multi-hot: groups of groupKeys keys, drawn zipf(zipfTheta).
	groups    int
	groupKeys int
	zipfTheta float64

	// rate is the open-loop arrival rate R in ops/s over all connections.
	// It was calibrated once to about a quarter of the seed commit's
	// closed-loop throughput on this workload (README, "How R was
	// calibrated") and is a constant from then on: deriving it at run time
	// would let a slower program be offered less load and hide its own
	// regression. To recalibrate, edit the constant below.
	rate float64
}

// conns is the number of load-generating connections, each one sender and
// one receiver goroutine; 2, so that requests reach both of wtfd's executors
// from two connection loops while the generator stays small next to the
// server it shares a CPU with.
const conns = 2

// The bank-futures shape: the paper's Fig 8 log replay with zero emulated
// work, so engine and substrate are all that is measured.
const (
	bankAccounts  = 1024
	bankBalance   = 100
	bankChunk     = 16
	bankPairs     = 4
	bankWindow    = 4
	bankUpdatePct = 50
	bankTopLevels = 2
	bankChunks    = 8192 // pre-generated chunks per top-level goroutine
)

var workloads = []*workload{
	{
		name:   "get-heavy",
		served: true, shards: 16,
		keys: 131072, valLen: 64, readPct: 95, depth: 16,
		rate: 52000,
	},
	{
		name:   "mixed-durable",
		served: true, shards: 16, durable: true,
		flags: []string{"-fsync", "group", "-snapshot-every", "1024"},
		keys:  16384, valLen: 128, readPct: 50, depth: 256,
		rate: 26000,
	},
	{
		name:   "multi-hot",
		served: true, shards: 16,
		flags:  []string{"-ordering", "wo"},
		groups: 128, groupKeys: 8, zipfTheta: 0.99, valLen: tokenLen, readPct: 50, depth: 8,
		rate: 2900,
	},
	{
		name: "bank-futures",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDecl is one metric declaration of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchDecl is BENCHMARK.json. The benchmark reads it for the metric lists
// it must print and the bounds -compare applies, so the file stays the one
// place a metric is gated or demoted.
type benchDecl struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDecl(root string) (*benchDecl, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d benchDecl
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}
