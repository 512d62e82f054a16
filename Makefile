GO ?= go
FUZZTIME ?= 10s

.PHONY: build test vet fmt perfbench race chaos fuzz-smoke bench-smoke bench-json bench-gate cover-chipcheck verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Formatting gate: gofmt -l names every file whose layout differs from
# gofmt's, so any output fails.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# perfbench is its own Go module, so the root build and test never
# compile it; vet and test it here so an internal API change cannot
# break the benchmark unnoticed.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Race-detector pass over the whole module: the serving layer is
# concurrent end to end (pool, admission, cache, flights, quarantine,
# breaker, snapshot loop), so every package rides along.
race:
	$(GO) test -race ./...

# The resilience suite under the race detector: panic containment,
# poison-key quarantine, breaker degradation, crash-safe restart, the
# chipcheck operator store (coalesced builds, containment, budget), job
# crash-resume / lane isolation, and the PR 8 self-healing suite — the
# jobs package run covers chunk retry/quarantine, journal degradation
# and torn-tail recovery under injected faults; the final line drives
# the numeric fallback ladder and the CG health guards.
chaos:
	$(GO) test -race -count=1 ./internal/server \
		-run 'TestChaos|TestPoolTaskPanic|TestFlightLeaderPanic|TestFlightLeaderRechecksCache|TestHandlerPanic|TestQuarantine|TestBreaker|TestFailureClass|TestSnapshot|TestQueueWaitClamp|TestAdmissionWaitClamped|TestReadyz|TestJobs|TestChipcheckOperator|TestOperatorStoreLRU|TestRunReleasesOperators'
	$(GO) test -race -count=1 ./internal/jobs/...
	$(GO) test -race -count=1 ./internal/fdm ./internal/powergrid ./internal/mathx \
		-run 'TestSolverLadder|TestSheetLadder|TestIRDropFallback|TestLadder|TestCG|TestBandCholesky'

# Short fuzz smokes: enough to catch a freshly introduced panic or
# key-encoder collision without turning CI into a fuzz farm.
fuzz-smoke:
	$(GO) test ./internal/netcheck -run '^$$' -fuzz FuzzParseDesign -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzNetcheckRoute -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzSolveKeyEncoder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzDeckKeyEncoder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzSnapshotCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzAppendIndented -fuzztime $(FUZZTIME)
	$(GO) test ./internal/jobs -run '^$$' -fuzz FuzzJournalDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/jobs -run '^$$' -fuzz FuzzManifestDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chipcheck -run '^$$' -fuzz FuzzCompileParams -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mathx -run '^$$' -fuzz FuzzSketchDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/em -run '^$$' -fuzz FuzzChipDrawBound -fuzztime $(FUZZTIME)

# Coverage gate for the signoff engine: the coupled-loop/verdict/report
# paths are the correctness core of /v1/chipcheck, so regressions in test
# reach fail the build rather than rotting silently.
cover-chipcheck:
	$(GO) test ./internal/chipcheck -coverprofile=cover.out -count=1
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { \
		pct = $$3; sub(/%/, "", pct); \
		printf "chipcheck coverage: %s%%\n", pct; \
		if (pct + 0 < 80) { print "FAIL: below 80% gate"; exit 1 } }'
	@rm -f cover.out

# One-iteration pass over the orchestration benchmarks: keeps the
# thundering-herd, batch-vs-serial, warm-restart and quarantine paths,
# the store's cache hit, the handler benchmarks, the design-file decoder
# and the job-lane throughput cases compiling and executing without
# turning CI into a benchmark farm.
bench-smoke:
	$(GO) test ./internal/server -run '^$$' -bench 'ThunderingHerd|BatchVsSerial|WarmStartVsCold|QuarantineHit|CacheGetHit|Handler' -benchtime 1x
	$(GO) test ./internal/netcheck -run '^$$' -bench 'ParseDesign' -benchtime 1x
	$(GO) test ./internal/jobs -run '^$$' -bench 'JobThroughput' -benchtime 1x

# Numeric-backbone benchmarks (parallel kernels, the banded factor and
# sweep, batched FDM solves, Monte Carlo fan-out, job-lane throughput,
# the lifetime sampling kernel and its inverse normal) with serial
# baselines in the same run, plus the rules, batch and netcheck handler
# benchmarks and the design-file decoder, five samples each (benchjson records the median, min and
# max), appended to the perf trajectory as the next BENCH_<n>.json
# (cmd/benchjson -next auto-increments past the highest existing index).
bench-json:
	$(GO) test ./internal/mathx ./internal/fdm ./internal/rules ./internal/jobs ./internal/chipcheck ./internal/lifetime ./internal/server ./internal/netcheck -run '^$$' \
		-bench 'SpMVParallel|DotParallel|SolveCGPrecond|BandCholesky|FDMSolveBatch|FDMCouplingFactor|MonteCarloParallel|JobThroughput|JobRetryOverhead|Chipcheck|LifetimeSketch|SampleRange|InvNormCDF|Handler|ParseDesign' \
		-benchtime 10x -count=5 | $(GO) run ./cmd/benchjson -next .

# Kernel A/B gate for a code change. It builds PKG's test binary in a
# temporary checkout of BASE (git archive, default HEAD) and in the
# working tree, runs the two alternately for 10 pairs from their package
# directories with the same -cpu (the host's CPU count), swapping which
# runs first each pair, and feeds both raw outputs to benchjson
# -compare: per benchmark the median ratio new/old, resolved when the
# [min, max] ranges are disjoint, exit 1 on a resolved slowdown past 25%.
# The checkout and the binaries are removed on every exit path.
# BENCH_<n>.json records stay a record and are not gated: on a shared
# host, drift between two records taken at different times is larger
# than the bound. Not a CI step; for example
#
#	make bench-gate BASE=HEAD~1 PKG=./internal/mathx BENCH=DotParallel
BASE ?= HEAD
PKG ?= ./internal/lifetime
BENCH ?= SampleRange

bench-gate:
	@set -e; tmp=$$(mktemp -d); cpu=$$(getconf _NPROCESSORS_ONLN); \
	trap 'rm -rf "$$tmp"' EXIT; trap 'exit 130' INT TERM HUP; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/old.test" $(PKG)); \
	$(GO) test -c -o "$$tmp/new.test" $(PKG); \
	run() { (cd "$$2" && "$$tmp/$$1.test" -test.run '^$$' -test.bench '$(BENCH)' -test.benchtime 10x \
		-test.cpu $$cpu -test.benchmem -test.timeout 30m) >> "$$tmp/$$1.bench"; }; \
	old() { run old "$$tmp/base/$(PKG)"; }; new() { run new "$(PKG)"; }; \
	for i in $$(seq 10); do \
		if [ $$((i % 2)) = 1 ]; then old; new; else new; old; fi; \
		echo "bench-gate: pair $$i of 10" >&2; \
	done; \
	$(GO) run ./cmd/benchjson -compare "$$tmp/old.bench" "$$tmp/new.bench"

verify: fmt build vet test perfbench race chaos fuzz-smoke bench-smoke cover-chipcheck
	@echo "verify: all gates passed"
