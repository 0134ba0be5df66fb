# ShareStreams-Go convenience targets (plain `go` commands work too).

.PHONY: all check ci build test race bench bench-check spine-compare experiments cover fuzz fuzz-smoke lint lint-ci lint-stats chaos soak crash smoke

all: build test race lint

# check is the full pre-merge gate: everything in all plus the perf
# regression guards (zero allocations, fast-path hit rates), the coverage
# floor, the chaos suite, the control-plane soak, the crash-recovery gate,
# the service smoke (which includes the kill -9 recovery drill), and a short
# fuzz of the decision fast path. Wall-clock performance is spine-compare's
# job: it needs a base to compare against, so it is not part of check.
check: all bench-check cover chaos soak crash smoke fuzz-smoke

# ci mirrors .github/workflows/ci.yml locally: the same steps its required
# jobs run, in one invocation (the workflow's perf job is advisory and is
# reproduced by `make spine-compare`). lint-ci is the workflow's
# lint step: the same suite as lint plus the sslint.json artifact and the
# suppression audit.
ci: build test smoke race lint-ci bench-check cover chaos fuzz-smoke soak crash

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# Everything under the race detector: the concurrent packages (SPSC rings,
# pipeline goroutines, sharded router) are the point, but the aliasing
# contracts in shuffle/core matter under -race too.
race:
	go test -race ./...

# Static-analysis gate: formatting, go vet, and the project-specific sslint
# suite (see DESIGN.md "Static analysis: the enforced invariants").
# Unformatted files fail the build rather than just being listed.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...
	go run ./cmd/sslint ./...

# lint-ci is the CI flavor of lint: findings also land in sslint.json (the
# uploaded artifact) and as GitHub ::error annotations on the PR diff, and
# the //sslint:allow suppression audit runs so a reasonless allow fails the
# job even when the analyzers themselves are clean.
lint-ci:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...
	go run ./cmd/sslint -json sslint.json -github ./...
	go run ./cmd/sslint -stats ./...

# lint-stats audits the //sslint:allow suppressions: per-analyzer counts
# plus every annotation's site and reason, failing on any allow whose
# reason clause is empty or malformed. The current snapshot is recorded in
# DESIGN.md §10 — refresh it there when this output changes.
lint-stats:
	go run ./cmd/sslint -stats ./...

bench:
	go test -bench=. -benchmem ./...

# Quick perf-regression gate: the zero-allocation guards (blind, visited and
# instrumented batches) and accounting guards, the per-rank-program fast-path
# hit rates, the key-plane-cycle-equals-word-plane-oracle,
# fast-path-equals-cascade and lazy-aggregator-equals-eager differential
# tests, and one pass of the headline benchmarks with allocation reporting.
# Cheap enough for every PR.
bench-check:
	go test -run 'TestZeroAllocSteadyState|TestZeroAllocVisited|TestZeroAllocInstrumented|TestHWCyclesAccounting|TestFastPathHitRates|TestCycleDifferential|TestSourceSyncAtBoundaries' ./internal/core/
	go test -run 'TestFastOrderDifferential|TestLessStrictWeakOrdering' ./internal/decision/
	go test -run 'TestBlockAliasingContract' ./internal/shuffle/
	go test -run 'TestZeroAllocAggregate|TestAdvanceIsLazy|TestDifferential' ./internal/streamlet/
	go test -run xxx -bench 'BenchmarkDecisionCycle' -benchtime 100x -benchmem .

# Spine comparison, the one wall-clock perf gate: every ssspine workload on
# BASE and on the working tree, seeds 1 and 20030422, then `ssspine
# -compare` for each seed — what a gain PR records in EXPERIMENTS.md, and
# what CI's advisory perf leg uploads. Both seeds always run; the target
# fails if either compare reads worse or any exact count differs. The JSON
# files land in .ssspine/compare/.
BASE := HEAD~1

spine-compare:
	./scripts/spine_compare.sh $(BASE)

experiments:
	go run ./cmd/ssbench all

# Coverage floor for the library packages. The baseline was measured at
# 85.3%; the floor leaves a little room for refactors that move lines
# without losing tests. Raise it when coverage durably improves.
COVER_FLOOR := 82.0

# cover writes coverage.out for internal/... and fails when total statement
# coverage drops below $(COVER_FLOOR).
cover:
	go test -coverprofile=coverage.out ./internal/...
	@total=$$(go tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "internal/... statement coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "FAIL: coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Chaos gate: the fault-injection suite under the race detector (trace and
# result determinism, frame conservation, bounded recovery, nil-injector
# parity with the paper figures), plus the pipeline's own two: the driver
# differential (Run ≡ Run again ≡ supervised-with-no-faults, decisions and
# idle cycles included) and the bus-giveup goroutine-leak test. Then the
# ssbench golden test, which includes two seeded end-to-end fault sweeps
# (-shards 2 -seed 1 and -shards 3 -seed 42): each sweep's stdout must match
# the checked-in bytes in cmd/ssbench/testdata/golden — every ledger column,
# not only the recovery trace — so a chaos failure is reproducible from its
# seed alone.
chaos:
	go test -race -run 'TestChaos|TestSupervised|TestReuseAfterRestart|TestPipelineDriversAgree|TestRunPipelineMeterErrorUnblocksPipeline' \
		./internal/fault/ ./internal/shard/ ./internal/ringbuf/
	go test -run Golden ./cmd/ssbench/

# Control-plane churn soak: SOAK_EVENTS seeded admin events through the live
# engine, twice, requiring zero conservation violations and a byte-identical
# journal replay (delivered+dropped+evicted+in-flight == offered at every
# epoch fence). On failure the journal lands in soak-journal.txt — CI's
# uploaded artifact. Deterministic: a failure replays from the seed alone.
SOAK_EVENTS := 1000000
SOAK_SEED := 1

soak:
	go run ./cmd/ssbench -seed $(SOAK_SEED) -events $(SOAK_EVENTS) -journal soak-journal.txt soak

# Crash-recovery gate: one CRASH_EVENTS-event churn soak as the reference,
# then a simulated kill -9 at CRASH_POINTS sampled byte offsets of its
# journal — each crash replays the surviving prefix (torn tail truncated,
# uncommitted epoch block dropped) and resumes through the full journal,
# and must recover to the reference's journal hash, conservation ledger,
# and admitted offering exactly. On divergence the reference journal lands
# in crash-journal.txt — CI's uploaded artifact — and the failure replays
# from the seed and reported crash offset alone.
CRASH_EVENTS := 100000
CRASH_POINTS := 100
CRASH_SEED := 1

crash:
	go run ./cmd/ssbench -seed $(CRASH_SEED) -events $(CRASH_EVENTS) -points $(CRASH_POINTS) -journal crash-journal.txt crash

# Service smoke: start cmd/ssserved on a random port, drive the admin API
# end to end with curl (admits, retunes, a program switch, pool resize,
# drain/restart, evictions, deliberate errors), kill it with SIGKILL and
# tear the journal's final write, restart with -recover, and require the
# replayed daemon to carry the pre-crash state and exit cleanly with
# balanced books. SMOKE_DIR=... pins the artifact directory (CI points it
# at a workspace path for upload).
smoke:
	./scripts/smoke_ssserved.sh

fuzz:
	go test -fuzz FuzzWinnerCorrect -fuzztime 30s ./internal/shuffle/
	go test -fuzz FuzzCompareConsistency -fuzztime 30s ./internal/decision/
	go test -fuzz FuzzKeyTieDifferential -fuzztime 30s ./internal/decision/
	go test -fuzz FuzzProgramRank -fuzztime 30s ./internal/decision/
	go test -fuzz FuzzFastOrderDifferential -fuzztime 30s ./internal/decision/

# Ten-second runs of every fuzz target — cheap enough for the check umbrella
# and a required CI leg. FuzzWinnerCorrect checks every shuffle schedule's
# winner against the reference minimum; FuzzProgramRank draws its program
# from the fuzzed input modulo NumPrograms, so every registered rank program
# is exercised; FuzzKeyTieDifferential and FuzzFastOrderDifferential pin the
# tie and ordering fast paths to the cascade.
fuzz-smoke:
	go test -run xxx -fuzz FuzzWinnerCorrect -fuzztime 10s ./internal/shuffle/
	go test -run xxx -fuzz FuzzCompareConsistency -fuzztime 10s ./internal/decision/
	go test -run xxx -fuzz FuzzKeyTieDifferential -fuzztime 10s ./internal/decision/
	go test -run xxx -fuzz FuzzProgramRank -fuzztime 10s ./internal/decision/
	go test -run xxx -fuzz FuzzFastOrderDifferential -fuzztime 10s ./internal/decision/
