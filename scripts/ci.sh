#!/usr/bin/env sh
# Tier-1.5 gate: everything tier-1 runs (build + full tests) plus vet, the
# race detector over the concurrency-critical packages (the lock-free commit
# pipeline, the futures engine, and the conformance scheduler), coverage
# floors for the engine and its oracle, the wtfconform smoke budget — which
# must find nothing on the real engine — and the mutation ledger, whose every
# deliberately broken build must be reported. Run before merging substrate
# changes.
set -e
cd "$(dirname "$0")/.."

echo "== tier-1: build + tests =="
go build ./...
go test ./...

echo "== tier-1: benchmark module unit tests (its own module, not reached by ./...) =="
(cd benchmark && go test -short ./...)

echo "== tier-1.5: vet (untagged and with the mutation ledger's sites live) =="
go vet ./...
go vet -tags mutants ./...

echo "== tier-1.5: docs name only scripts, top-level JSON files, wtfbench experiments, build tags, mutants and Go tests that exist =="
# EXPERIMENTS.md's one "Historical" section is where deleted instruments may
# still be named; everything else must point at things in the tree. The
# experiment names are whatever wtfbench lists when asked for an unknown one;
# the one build tag is mutants, and the mutant names are internal/mutant's
# table. The docs are searched as one line, so a reference wrapped onto the
# next line is still seen, and a "|" list (-exp fig3|fig7) yields each name.
docs="README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
doc_refs() {
	awk '/^## /{ skip = /^## Historical in-process sweeps/ } !skip' $docs | tr -s '\n ' '  ' |
		grep -oE -- "$1" | tr '|' '\n' | sort -u
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
for name in $(doc_refs '-exp [a-z][a-z0-9]*(\|[a-z][a-z0-9]*)*' | sed 's/^-exp //'); do
	case " $exps " in
	*" $name "*) ;;
	*)
		echo "ci: the docs name wtfbench -exp $name; valid: $exps" >&2
		stale=1
		;;
	esac
done
for tag in $(doc_refs '-tags[ =][A-Za-z0-9_,]+' | sed 's/^-tags.//'); do
	if [ "$tag" != mutants ]; then
		echo "ci: the docs name build tag $tag; the only one is mutants" >&2
		stale=1
	fi
done
mutants=$(sed -n 's/^	{[A-Za-z]*, "\([A-Za-z]*\)".*/\1/p' internal/mutant/mutant.go | tr '\n' ' ')
for name in $(doc_refs 'TestMutantsCaught/[A-Za-z]+' | sed 's|.*/||'); do
	case " $mutants " in
	*" $name "*) ;;
	*)
		echo "ci: the docs name mutant $name; the table has: $mutants" >&2
		stale=1
		;;
	esac
done
# A Go test name is read as a go test -run prefix: some test, benchmark or
# fuzz target must start with it.
for name in $(doc_refs '(^|[^A-Za-z0-9_])(Benchmark|Test|Fuzz)[A-Z][A-Za-z0-9_]*' | sed 's/^[^A-Z]//' | sort -u); do
	if ! grep -rqE --include='*_test.go' "^func $name[A-Za-z0-9_]*\(" .; then
		echo "ci: the docs name $name, which no func in a _test.go file starts with" >&2
		stale=1
	fi
done
if [ "$stale" -ne 0 ]; then
	exit 1
fi

echo "== tier-1.5: race (mvstm + core + conform + wtfd server/client/wire + wal/persist) =="
# The core run covers arena reuse: graph memory handed from one attempt to the
# next (retained handles, GAC escapees, parked stragglers — lifetime_test.go),
# so a flow that can still reach a recycled vertex shows up here as a race.
go test -race ./internal/mvstm/ ./internal/core/ ./internal/conform/ ./internal/server/ ./internal/client/ ./internal/wire/ ./internal/wal/ ./internal/persist/

echo "== tier-1.5: claim-to-run contract and lifetimes under race at GOMAXPROCS 1 and 4 =="
# Whoever reaches a future first runs its body (worker.go): an evaluator-
# claimed body of an aborted attempt keeps its arena, a worker that loses
# the claim reads no arena, TryEvaluate never claims, Done-only
# continuations and bodies that wait for each other complete, SO
# evaluation out of submission order stays SO-serializable, a GAC
# straggler's merges share nothing with the commit validating the main
# chain's reads in place, and a foreign evaluation walks an escapee's chain
# in its spawner's kept arena while other flows are live (the chain must be
# frozen by then), sibling escapees included, escapees of two committed
# transactions that evaluate each other's spawners' escapees finish, a
# transaction that evaluates one escapee twice gets one outcome, and a
# forward validation scans the read log of a vertex whose flow is still
# reading into it (a vertex has no lock: DESIGN §9).
go test -race -cpu 1,4 -count=1 -run 'TestEvaluatorClaimedBodyOfAbortedAttempt|TestLosingWorkerReadsNoArena|TestTryEvaluateNeverClaims|TestDoneWithoutEvaluateCompletes|TestRendezvousBodiesComplete|TestSOEvaluateOutOfOrder|TestBlockedBodiesDoNotStarveWorkers|TestStragglerMergesWhileCommitValidates|TestGACConcurrentForeignEvaluators|TestEscapedAttemptIsNeverRecycled|TestGACChainOfEscapes|TestEscapeValidatesHiddenRead|TestForeignEvaluationRevalidatesError|TestSiblingErrorReadsJoinEvaluator|TestSiblingReexecutionErrorReadsJoinEvaluator|TestEscapeesEvaluateEachOthersSpawners|TestForeignRepeatedEvaluation|TestForeignDecisionDiscardedWithItsChain|TestForeignRepeatAwaitsItsDecision|TestForeignDecisionOfACancelledFlow|TestForwardScanOfActiveReader' ./internal/core/

echo "== tier-1.5: GC horizon and pins under race at GOMAXPROCS 1 and 4 =="
# Every shard of active snapshots is a list in registration order whose head
# is the horizon (active.go): pins taken and released while other goroutines
# commit and trim must never lose a version a tracked snapshot still reads.
go test -race -cpu 1,4 -count=1 -run 'TestTxnPin|TestPin|TestActiveShards|TestGCRespectsActiveSnapshot|TestTrimWatermark|TestReadAtPanicsBelowHorizon' ./internal/mvstm/

echo "== tier-1.5: crash recovery under race (deterministic fault injection) =="
# The durability acceptance property: for every injected crash point, the
# recovered store equals a prefix of the acknowledged-op sequence — no acked
# write lost under -fsync group/always — and every MULTI batch, acked or not,
# recovers whole or not at all (it is one record of the one log). The ack
# rule rides along: under group only the ack daemon waits on the barrier, so
# a held fsync stalls no executor, and an exactly-once resend is answered
# only after a barrier that covers its original's record.
go test -race -cpu 1,4 -run 'TestCrash|TestDrainFlushesWAL|TestAckRule' -count=1 ./internal/server/

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
# against a durable server, client history checked against its WAL. The full
# sweep (8 seeds x 4 scenarios x 2 fsync policies, plus the kill -9 crash
# rows in cmd/wtfd) runs via go test ./...; this gate pins the reset and
# partition rows under the race detector with a hard wall-clock budget so a
# livelocked retry loop fails fast instead of hanging CI.
go test -race -run TestChaosSweepSmoke -count=1 -timeout 120s ./internal/chaos/

echo "== tier-1.5: overload shedding at GOMAXPROCS 1 (20 runs) =="
# The shed+retry acceptance test makes its own overload (a write held in
# flight on a gated fsync) instead of waiting for the scheduler to overlap
# the workers, which on one CPU it mostly does not; repeat it there.
go test -run TestShedAndRetryUnderResets -cpu 1 -count 20 ./internal/chaos/

echo "== tier-1.5: fast/fallback read monotonicity at GOMAXPROCS 4 under race (50 runs) =="
# A fast GET's answer can be written before that of a write queued ahead of
# it on the same connection; the test matches responses by ID, and repeating
# it on 4 Ps keeps that ordering exercised.
go test -race -cpu 4 -count 50 -run TestFastReadMonotonicAcrossPaths ./internal/server/

echo "== tier-1.5: wtfconform smoke (fixed seeds, clean engine: expect 0 violations) =="
go run ./cmd/wtfconform -mode dfs -seed 1 -seeds 8 -budget 300

echo "== tier-1.5: wtfconform nested-futures sweep (depth 2 and 3, clean engine: expect 0 violations) =="
# Futures that submit futures: a re-executed or never-evaluated future takes
# what its discarded execution submitted with it, and the oracle must drop
# those futures too (it once did not, and failed the clean engine at depth 2
# seed 12 and depth 3 seed 11). conform's TestMutantsSweep runs these shapes
# and the smoke sweep above with each engine mutant active.
for depth in 2 3; do
	go run ./cmd/wtfconform -mode dfs -seed 1 -seeds 16 -budget 300 -futures 3 -depth $depth -ops 8
done

echo "== tier-1.5: wtfconform two-top-level sweep (2 drivers x 2 transactions, LAC, clean engine: expect 0 violations) =="
# Concurrent top-level transactions over the same boxes, so a commit can
# conflict with another's: the commit's read validation is exercised, which
# the one-transaction sweeps above cannot do. WO/GAC stays out until the
# oracle's seam for escaped futures is settled (ROADMAP 15(a)).
go run ./cmd/wtfconform -mode dfs -seed 1 -seeds 16 -budget 300 -threads 2 -txns 2 -atomicity lac

echo "== tier-1.5: box-set fuzz (10 s past the seed corpus) =="
# FuzzBoxSet drives the box set of engine and substrate (put, insert,
# absorb both ways, reset against a budget) against a Go-map model across
# index doublings; its seeds run with the plain tests, this explores beyond
# them.
go test -run '^$' -fuzz FuzzBoxSet -fuzztime 10s ./internal/mvstm/

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

echo "== tier-1.5: engine allocation guards (per future <= 4, single write <= 3, wide-read future <= 2, wide-commit future <= 2, deep read 0) =="
# What a future costs beyond its body: the handle, the caller's closure and
# what the body itself boxes and commits. The graph (vertices, Tx handles,
# registries, validation and merge scratch) comes from the recycled arena,
# and the evaluating flow runs a body nobody started instead of blocking on
# a channel for it, so a count above the floor means graph state or a
# hand-off went back to the heap. width=8 is 8 futures over disjoint boxes;
# the single write is a served PUT: the substrate's commit request, entry
# slice and version, plus the body's boxed int on about half the runs
# (reported as 3); the engine adds none, and the substrate keeps the
# installed versions as the request's entries instead of building a map per
# commit.
check_allocs ./internal/bench/ BenchmarkValidateWide/width=8 4
check_allocs ./internal/bench/ BenchmarkSubmitEvaluate/depth=8 4
check_allocs ./internal/bench/ BenchmarkAtomicSingleWrite 3
# A future that reads 1024 boxes: its vertex reuses read-set storage its
# arena kept, and its merge hands that storage to the target instead of
# copying it, so only the handle and the occasional wait channel are left
# (1 allocs/op at 20000x, 2 at 2000x: the wait channel is 0 to 0.75 per
# future, depending on whether the evaluator blocks on a worker). Before the
# hand-over and the per-arena budget it was 40: every read set regrew its
# map, and so did every merge target.
check_allocs ./internal/bench/ BenchmarkReadWide/reads=1024 2
# The same futures, then one write on the main flow: the top-level commit
# validates the main chain's 4096 snapshot reads where its vertices hold
# them, so it adds no allocation to ReadWide's (the substrate used to copy
# them into a map of its own).
check_allocs ./internal/bench/ BenchmarkCommitWide/reads=1024 2
# A boundary and eight first reads in a fresh vertex over a 64-vertex
# ancestor chain: the vertex, its read set and the flow's visible-write
# index all reuse kept storage, so the read path allocates nothing.
check_allocs ./internal/bench/ BenchmarkReadDepth/depth=64 0

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

echo "== tier-1.5: map fast-read allocation guard (0 allocs/op, 128 entries per bucket) =="
# GetFastBytes walks the bucket's hash trie with the key still a byte slice:
# hashing, routing and the key comparison must build no string, at the
# get-heavy occupancy where a bucket is an inner node over leaves.
check_allocs ./internal/tstruct/ BenchmarkMapGetFast/entries=128 0

echo "== tier-1.5: histogram record-path allocation guard (0 allocs/op) =="
# obs.Histogram.Observe sits inside every serving stage (including the 33ns
# fast-read sampler); it must never touch the heap.
check_allocs ./internal/obs/ BenchmarkHistogramRecord 0

echo "== tier-1.5: observability endpoint smoke under race (/metrics + /debug/wtfd/slow on live traffic) =="
go test -race -count=1 -run 'TestMetricsEndpoint|TestStatsWireSections|TestFlightRecorder' ./internal/server/

echo "== tier-1.5: client GET round-trip allocation guard (0 allocs/op) =="
# Full loopback round trip via GetBytes: both ends are pooled and the server
# routes and looks up the key in its wire buffer, so nothing is allocated.
check_allocs ./internal/client/ BenchmarkClientGetRoundTrip 0

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

echo "== tier-1.5: served-history check under race (the one configuration wtfd runs) =="
# A durable server with group commit, fast reads, deferred acks and
# cross-shard MULTIs all on, judged from outside: client histories against
# the WAL, through the FSG polygraph, under WO and SO.
go test -race -count=1 -run TestServedHistoryConformance ./internal/server/

echo "== tier-1.5: mutation ledger (internal/mutant: every broken build reported, clean suites pass) =="
# One run per detecting package with the mutants tag: its clean tests run
# with no mutant active, and TestMutantsCaught activates each table entry the
# package owns and requires its detector's report (an FSG cycle, a served-
# history violation, a failed invariant). One entry: -run TestMutantsCaught/<name>.
go test -tags mutants -count=1 ./internal/core/ ./internal/conform/ ./internal/server/

echo "ci: all gates passed"
