#!/usr/bin/env sh
# Record the mvstm micro-benchmarks (commit contention, begin/finish) into
# BENCH_mvstm.json, the wtfd end-to-end sweep (wtfbench -exp server) into
# BENCH_server.json, and the futures-engine hot-path benchmarks (ReadDepth/
# SubmitEvaluate/ValidateWide + wtfbench -exp core) into BENCH_core.json,
# so successive PRs accumulate a perf trajectory.
#
# Usage: scripts/bench.sh <label> [benchtime]
#   label      name of this measurement (e.g. "seed", "commit-pipeline")
#   benchtime  go test -benchtime value (default 0.5s)
set -e
cd "$(dirname "$0")/.."

LABEL="${1:?usage: scripts/bench.sh <label> [benchtime]}"
BENCHTIME="${2:-0.5s}"

# Host context recorded into every entry: throughput numbers are meaningless
# across machines without the parallelism and the silicon they ran on.
GOMAXPROCS_VAL="${GOMAXPROCS:-$(nproc)}"
CPU_MODEL=$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^[[:space:]]*//')
[ -n "$CPU_MODEL" ] || CPU_MODEL=unknown

# record <out.json> <go-test-bench-output> [extra-key extra-json]: append one
# entry — label, host context, the output's Benchmark lines as JSON, and
# optionally one more key holding a sweep's result — to the trajectory file.
record() {
	out=$1
	benches=$(printf '%s\n' "$2" | awk '
		/^Benchmark/ {
			name = $1; iters = $2; ns = $3; bop = ""; allocs = ""
			for (i = 4; i <= NF; i++) {
				if ($(i) == "B/op")      bop = $(i-1)
				if ($(i) == "allocs/op") allocs = $(i-1)
			}
			printf "{\"name\":\"%s\",\"iters\":%s,\"ns_per_op\":%s", name, iters, ns
			if (bop != "")    printf ",\"b_per_op\":%s", bop
			if (allocs != "") printf ",\"allocs_per_op\":%s", allocs
			print "}"
		}' | jq -s .)
	entry=$(jq -n \
		--arg lbl "$LABEL" \
		--arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		--arg rev "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
		--arg go "$(go version | awk '{print $3}')" \
		--argjson cpus "$(nproc)" \
		--argjson gomaxprocs "$GOMAXPROCS_VAL" \
		--arg cpu_model "$CPU_MODEL" \
		--argjson benches "$benches" \
		--arg key "${3:-}" \
		--argjson extra "${4:-null}" \
		'{"label":$lbl,"date":$date,"rev":$rev,"go":$go,"cpus":$cpus,"gomaxprocs":$gomaxprocs,"cpu_model":$cpu_model,"benches":$benches}
		 + (if $key == "" then {} else {($key): $extra} end)')
	if [ -f "$out" ]; then
		jq --argjson entry "$entry" '. + [$entry]' "$out" >"$out.tmp" && mv "$out.tmp" "$out"
	else
		jq -n --argjson entry "$entry" '[$entry]' >"$out"
	fi
	echo "recorded '$LABEL' into $out:"
}

RAW=$(go test -run '^$' -bench 'BenchmarkCommitContention|BenchmarkBeginFinish|BenchmarkReadOnly' \
	-benchtime "$BENCHTIME" -benchmem ./internal/mvstm/)
record BENCH_mvstm.json "$RAW"
printf '%s\n' "$RAW" | grep '^Benchmark' || true

# --- wtfd end-to-end sweep -------------------------------------------------
SRVRES=$(go run ./cmd/wtfbench -exp server -quick -duration 150ms -json | jq '.result')

# Request-path allocation benchmarks: ns/op + allocs/op of the pooled
# decode -> execute -> encode lifecycle (the ci.sh <= 2 allocs/op gate), the
# lock-free GET fast path (0 allocs/op gate), and the client's full GET
# round-trip (<= 1 alloc/op gate — the server-side key string).
SRVRAW=$(go test -run '^$' -bench 'BenchmarkServerEcho$|BenchmarkServerGetPath$|BenchmarkServerFastGet$' \
	-benchtime "$BENCHTIME" -benchmem ./internal/server/)
SRVRAW="$SRVRAW
$(go test -run '^$' -bench 'BenchmarkClientGetRoundTrip$' -benchtime "$BENCHTIME" -benchmem ./internal/client/)"
record BENCH_server.json "$SRVRAW" result "$SRVRES"
printf '%s\n' "$SRVRES" | jq -c '.Points[0], .Points[-1]'

# --- futures-engine hot paths ----------------------------------------------
CORERAW=$(go test -run '^$' -bench 'BenchmarkReadDepth|BenchmarkSubmitEvaluate|BenchmarkValidateWide' \
	-benchtime "$BENCHTIME" -benchmem ./internal/bench/)
CORERES=$(go run ./cmd/wtfbench -exp core -quick -duration 150ms -json | jq '.result')
record BENCH_core.json "$CORERAW" sweep "$CORERES"
printf '%s\n' "$CORERAW" | grep '^Benchmark' || true
