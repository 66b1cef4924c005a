#!/usr/bin/env sh
# Tier-1.5 gate: everything tier-1 runs (build + full tests) plus vet, the
# race detector over the concurrency-critical packages (the lock-free commit
# pipeline, the futures engine, and the conformance scheduler), coverage
# floors for the engine and its oracle, and the wtfconform smoke budget —
# which must find nothing on the real engine and must find a violation on
# the fault-injected build. Run before merging substrate changes.
set -e
cd "$(dirname "$0")/.."

echo "== tier-1: build + tests =="
go build ./...
go test ./...

echo "== tier-1: benchmark module unit tests (its own module, not reached by ./...) =="
(cd benchmark && go test -short ./...)

echo "== tier-1.5: vet =="
go vet ./...

echo "== tier-1.5: docs name only scripts, top-level JSON files and wtfbench experiments that exist =="
# EXPERIMENTS.md's one "Historical" section is where deleted instruments may
# still be named; everything else must point at things in the tree. The
# experiment names are whatever wtfbench lists when asked for an unknown one.
docs="README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
doc_refs() {
	awk '/^## /{ skip = /^## Historical in-process sweeps/ } !skip' $docs | grep -oE -- "$1" | sort -u
}
exps=$(go run ./cmd/wtfbench -exp '?' 2>&1 | sed -n 's/.*valid: //p' | tr '|' ' ')
if [ -z "$exps" ]; then
	echo "ci: wtfbench -exp '?' listed no experiments" >&2
	exit 1
fi
stale=0
for ref in $(doc_refs 'scripts/[A-Za-z0-9_.-]+\.sh') $(doc_refs '(^|[^/A-Za-z0-9_.-])[A-Z][A-Za-z0-9_*]*\.json' | sed 's/^[^A-Z]//'); do
	# Unquoted on purpose: a name with a * in it is a glob and must match a file.
	if ! ls $ref >/dev/null 2>&1; then
		echo "ci: the docs name $ref, which does not exist" >&2
		stale=1
	fi
done
for name in $(doc_refs '-exp [a-z][a-z0-9]*' | sed 's/^-exp //'); do
	case " $exps " in
	*" $name "*) ;;
	*)
		echo "ci: the docs name wtfbench -exp $name; valid: $exps" >&2
		stale=1
		;;
	esac
done
if [ "$stale" -ne 0 ]; then
	exit 1
fi

echo "== tier-1.5: race (mvstm + core + conform + wtfd server/client/wire + wal/persist) =="
# The core run covers arena reuse: graph memory handed from one attempt to the
# next (retained handles, GAC escapees, parked stragglers — lifetime_test.go),
# so a flow that can still reach a recycled vertex shows up here as a race.
go test -race ./internal/mvstm/ ./internal/core/ ./internal/conform/ ./internal/server/ ./internal/client/ ./internal/wire/ ./internal/wal/ ./internal/persist/

echo "== tier-1.5: crash recovery under race (deterministic fault injection) =="
# The durability acceptance property: for every injected crash point, the
# recovered store equals a prefix of the acknowledged-op sequence — no acked
# write lost under -fsync group/always, MULTI batches atomic across the cut.
go test -race -run 'TestCrash|TestDrainFlushesWAL' -count=1 ./internal/server/

echo "== tier-1.5: coverage floors (core >= 80%, fsg >= 85%, wal >= 80%, persist >= 75%) =="
check_cover() {
	pkg=$1
	floor=$2
	pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "ci: no coverage reported for $pkg" >&2
		exit 1
	fi
	if [ "${pct%%.*}" -lt "$floor" ]; then
		echo "ci: coverage of $pkg is ${pct}%, floor is ${floor}%" >&2
		exit 1
	fi
	echo "   $pkg: ${pct}% (floor ${floor}%)"
}
check_cover ./internal/core/ 80
check_cover ./internal/fsg/ 85
check_cover ./internal/wal/ 80
check_cover ./internal/persist/ 75

echo "== tier-1.5: recovery smoke (real wtfd binary: serve, kill -9, recover) =="
go test -run TestRecoverySmoke -count=1 ./cmd/wtfd/

echo "== tier-1.5: chaos smoke under race (fixed seed, wall-clock budget) =="
# Fixed-seed slice of the chaos conformance sweep: fault-injected transports
# against a durable server, lost-ack oracle on the recovered state. The full
# sweep (8 seeds x 4 scenarios x 2 fsync policies, plus the kill -9 crash
# rows in cmd/wtfd) runs via go test ./...; this gate pins the reset and
# partition rows under the race detector with a hard wall-clock budget so a
# livelocked retry loop fails fast instead of hanging CI.
go test -race -run TestChaosSweepSmoke -count=1 -timeout 120s ./internal/chaos/

echo "== tier-1.5: wtfconform smoke (fixed seeds, clean engine: expect 0 violations) =="
go run ./cmd/wtfconform -mode dfs -seed 1 -seeds 8 -budget 300

echo "== tier-1.5: wtfconform deep-chain smoke (nesting depth 4: long ancestor paths) =="
# Deeply nested futures build the long pred chains the visible-write index,
# merge patches and validation summaries optimize; this sweep pins their
# conformance on the schedules where those caches are most stressed.
go run ./cmd/wtfconform -mode dfs -seed 1 -seeds 4 -budget 300 -futures 2 -depth 4 -ops 8

echo "== tier-1.5: guard benchmarks (smoke run: hot paths must still complete) =="
go test -run '^$' -bench 'ReadDepth|BeginFinish' -benchtime 200ms ./internal/bench/ ./internal/mvstm/

# check_allocs <pkg> <bench> <floor>: run one benchmark at a fixed iteration
# count and fail when it reports more than <floor> allocs/op (or none at all).
check_allocs() {
	pkg=$1
	bench=$2
	floor=$3
	allocs=$(go test -run '^$' -bench "${bench}\$" -benchtime 20000x -benchmem "$pkg" |
		awk -v b="$bench" '$1 ~ "^" b { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }')
	if [ -z "$allocs" ]; then
		echo "ci: $bench reported no allocs/op" >&2
		exit 1
	fi
	if [ "$allocs" -gt "$floor" ]; then
		echo "ci: $bench allocates ${allocs} allocs/op, floor is ${floor}" >&2
		exit 1
	fi
	echo "   $bench: ${allocs} allocs/op (floor ${floor})"
}

echo "== tier-1.5: engine allocation guards (per future <= 6, single write <= 6) =="
# What a future costs beyond its body: the handle, the caller's closure and
# what the body itself boxes and commits. The graph (vertices, Tx handles,
# registries, validation and merge scratch) comes from the recycled arena, so
# a count above the floor means graph state went back to the heap. width=8
# is the MULTI shape; the single write is a served PUT (all five are the
# substrate's commit and the body's boxed value — the engine adds none).
check_allocs ./internal/bench/ BenchmarkValidateWide/width=8 6
check_allocs ./internal/bench/ BenchmarkSubmitEvaluate/depth=8 6
check_allocs ./internal/bench/ BenchmarkAtomicSingleWrite 6

echo "== tier-1.5: server request-path allocation guard (<= 2 allocs/op) =="
# The serving hot loop (pooled decode -> pipeline unit of one -> append-encode
# -> recycle) must stay allocation-free in steady state; anything above the
# floor means a pooled object or buffer started leaking to the heap again.
check_allocs ./internal/server/ BenchmarkServerEcho 2

echo "== tier-1.5: GET fast-path allocation guard (0 allocs/op, metrics enabled) =="
# The lock-free read path's entire point is an allocation-free read-heavy
# workload: a single alloc/op in the fast-serve loop is a regression. The
# benchmark server runs with the telemetry registry installed (it always is),
# so this also proves the latency sampler stays off the heap.
check_allocs ./internal/server/ BenchmarkServerFastGet 0

echo "== tier-1.5: histogram record-path allocation guard (0 allocs/op) =="
# obs.Histogram.Observe sits inside every serving stage (including the 33ns
# fast-read sampler); it must never touch the heap.
check_allocs ./internal/obs/ BenchmarkHistogramRecord 0

echo "== tier-1.5: observability endpoint smoke under race (/metrics + /debug/wtfd/slow on live traffic) =="
go test -race -count=1 -run 'TestMetricsEndpoint|TestStatsWireSections|TestFlightRecorder' ./internal/server/

echo "== tier-1.5: client GET round-trip allocation guard (<= 1 alloc/op) =="
# Full loopback round trip via GetBytes: the only permitted allocation is
# the server materializing the key string during request decode.
check_allocs ./internal/client/ BenchmarkClientGetRoundTrip 1

echo "== tier-1.5: read fast-path smoke (clean fallback rate <= 1%, session order under race) =="
# The fallback-rate gate catches a broken watermark or retry budget (every
# fallback is a silent perf loss, not an error); the race slice pins
# ReadLatest against concurrent commits and trims, GetFastBytes against
# transactional writers, and the served monotonic-reads story across paths.
go test -run TestFastReadCleanFallbackRate -count=1 ./internal/server/
go test -race -count=1 -run 'TestReadLatestStress' ./internal/mvstm/
go test -race -count=1 -run 'TestMapGetFastMatchesTransactionalGet' ./internal/tstruct/
go test -race -count=1 -run 'TestFastRead' ./internal/server/
go test -race -count=1 -run 'TestChaosFastReadConformance' ./internal/chaos/

echo "== tier-1.5: wtfconform smoke (conform_fault build: must catch the bug) =="
if go run -tags conform_fault ./cmd/wtfconform -mode dfs -ordering wo -atomicity lac -seed 1 -seeds 8 -budget 300; then
	echo "ci: fault-injected engine produced no violation — the oracle is blind" >&2
	exit 1
fi
go test -tags conform_fault -run TestFaultDetected ./internal/conform/

echo "ci: all gates passed"
