# Development targets for the Bootes reproduction.
#
#   make check   — vet + the gofmt gate + build + full test suite + fuzz
#                  seed corpus + the short deterministic chaos run + the
#                  observability coverage gate + vet and tests of the
#                  e2ebench module (tier-1 gate)
#   make cover   — per-package statement coverage report; enforces a floor on
#                  internal/obs (metrics must stay tested), report-only
#                  everywhere else
#   make race    — race-detector pass over the root package and the internal
#                  packages (including the ctx-aware pool and the concurrent
#                  plan-cancellation stress test), with a multi-core scheduler
#   make race-serve — focused race pass over the serving layer: the plan
#                  cache's concurrent put/get paths, planserve's
#                  coalescing/admission/breaker storms, the durable async
#                  queue's worker/crash paths, the metrics registry's
#                  concurrent instrument updates, the consistent-hash ring,
#                  the fleet router's forward/hedge/probe paths and node
#                  assembly, the bootesd binary's plan/drain test, the
#                  queue-crash chaos soak, whose jobs run on planqueue's
#                  workers through planserve's RunJob and shared state, and
#                  the fleet-heal chaos soak, whose healers replicate,
#                  repair, warm up and scrub against a live prober, then ten
#                  runs of the request-body lifetime tests (pooled bodies
#                  shared by handlers and fleet forwards, the cached
#                  permutation encoding many hits build at once, and the
#                  body memo's tags from one AEAD shared by goroutines) and
#                  ten of the key-first forward tests (reads by key, forged
#                  ones, a hedge race a "send the body" reply must not win,
#                  and one a hung owner must not stall)
#   make fuzz    — short fuzzing smoke over the sparse-format parsers, the
#                  CSR constructor, and the plan-cache entry decoder (the
#                  hostile-input hardening targets)
#   make chaos   — the long chaos soak: CHAOS_EPISODES (default 2000) seeded
#                  end-to-end episodes through plan→cache→serve→queue with
#                  faults armed (including queue-crash, tenant-storm, and
#                  fleet-partition), asserting the global invariants after
#                  each, plus the dense QUEUE_EPISODES (default 2000)
#                  queue-crash-only soak, the FLEET_EPISODES (default 200)
#                  fleet-partition kill/restart soak, and the HEAL_EPISODES
#                  (default 200) self-healing kill/restart/converge soak
#   make soak    — cmd/loadgen against a spawned 3-node in-process fleet:
#                  SOAK_DURATION of SOAK_QPS traffic, then latency/shed SLOs
#                  asserted from the fleet's own /metrics
#   make bench-queue — the durable-queue benchmark behind BENCH_queue.json
#                  (enqueue/drain throughput, journal replay at 10k jobs)
#   make bench   — the parallel-layer, eigensolver (including the k=8
#                  cold-sparse Lanczos solves), matrix-reader, plan-key,
#                  hot-hit and forwarded hit and miss benchmarks behind
#                  BENCH_parallel.json, plus the
#                  exact vs implicit similarity ablation (DESIGN.md §5)
#   make bench-matrix — the similarity/eigen/k-means/sweep benchmarks across
#                  BOOTES_WORKERS ∈ {1,2,4,max} plus the end-to-end
#                  similarity-tier run that regenerates BENCH_fastpath.json
#   make report  — regenerate the reproduction report at the default scale

GO ?= go
FUZZTIME ?= 10s
CHAOS_EPISODES ?= 2000
CHAOS_SEED ?= 20250806
QUEUE_EPISODES ?= 2000
FLEET_EPISODES ?= 200
HEAL_EPISODES ?= 200
SOAK_DURATION ?= 30s
SOAK_QPS ?= 100

OBS_COVER_FLOOR ?= 60.0

.PHONY: check vet fmt build test e2ebench cover race race-serve fuzz fuzz-seeds chaos chaos-short soak bench bench-matrix bench-queue report

check: vet fmt build test fuzz-seeds chaos-short cover e2ebench

vet:
	$(GO) vet ./...

# Formatting gate: the toolchain's own gofmt -l names every Go file,
# e2ebench's included, whose layout differs from gofmt's, and rewrites none
# of them.
fmt:
	@out=$$($$($(GO) env GOROOT)/bin/gofmt -l .) || exit 1; if [ -n "$$out" ]; then echo "gofmt -l lists files to format:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# e2ebench is its own module, so the root ./... pattern skips it, yet it
# imports internal packages: build, vet and test it here so an internal API
# change cannot break the benchmark unnoticed.
e2ebench:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# Statement coverage. internal/obs is gated: the observability layer is what
# the rest of the system relies on for truth during incidents, so letting its
# tests rot defeats the point. Other packages are report-only.
cover:
	$(GO) test -coverprofile=cover.out ./internal/... ./cmd/... .
	$(GO) tool cover -func=cover.out | tail -n 1
	@total=$$($(GO) test -cover ./internal/obs/ | \
		sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "internal/obs coverage: $$total% (floor $(OBS_COVER_FLOOR)%)"; \
	awk "BEGIN{exit !($$total >= $(OBS_COVER_FLOOR))}" || \
		{ echo "FAIL: internal/obs coverage $$total% below floor $(OBS_COVER_FLOOR)%"; exit 1; }

# GOMAXPROCS is forced above 1 so the race pass schedules real concurrency
# even on single-core CI runners; the timeout covers the ~10-20x race-detector
# slowdown of the experiment drivers on such runners.
race:
	GOMAXPROCS=4 $(GO) test -race -timeout 45m . ./internal/...

race-serve:
	GOMAXPROCS=4 $(GO) test -race -count=2 -timeout 10m \
		./internal/plancache/... ./internal/planserve/ ./internal/planqueue/ ./internal/obs/ \
		./internal/ring/ ./internal/fleet/ ./internal/antientropy/ ./internal/refine/ \
		./cmd/bootesd/
	GOMAXPROCS=4 $(GO) test -race -count=2 -timeout 10m ./internal/chaos/ -run 'TestQueueCrashSoak|TestFleetHealSoak'
	GOMAXPROCS=4 $(GO) test -race -count=10 -timeout 10m ./internal/planserve/ ./internal/fleet/ ./internal/plancache/ \
		-run 'TestHedgeLoserKeepsItsBody|TestBodyReferencesSettleOnEveryPath|TestBodyReleaseMisusePanics|TestConcurrentHitsShareOneEncoding|TestPermJSONBuiltOnFirstUse|TestBodyMemoConcurrent|TestBodyMemoTagsExactBytes|TestBodyMemosTagApart'
	GOMAXPROCS=4 $(GO) test -race -count=10 -timeout 10m ./internal/planserve/ ./internal/fleet/ \
		-run 'TestReadByKeyAnswersAsAForwardedHit|TestForgedReadsByKey|TestOwnerAnswersForwardByKey|TestBodyParsedOncePerNode|TestSendBodyLosesToALaterPlan|TestHungOwnerLetsTheHedgeHaveTheBody'

# Seed-corpus-only pass: every fuzz target replays its checked-in corpus as
# plain tests (no mutation engine), so check catches corpus regressions fast.
fuzz-seeds:
	$(GO) test ./internal/sparse/ ./internal/plancache/ ./internal/refine/ -run 'Fuzz' -count=1

# Short deterministic chaos run (also part of `go test ./...`); kept as its
# own target so check's output names it explicitly.
chaos-short:
	$(GO) test ./internal/chaos/ -run TestChaosEpisodes -count=1

# The long soak: the mixed schedule (which includes the queue-crash and
# tenant-storm scenarios) plus the dense queue-crash-only crash/restart soak.
# Reproduce a red run with: make chaos CHAOS_SEED=<seed>.
chaos:
	$(GO) test ./internal/chaos/ -run 'TestChaosEpisodes|TestQueueCrashSoak|TestFleetPartitionSoak|TestFleetHealSoak' -count=1 -v -timeout 60m \
		-chaos.episodes=$(CHAOS_EPISODES) -chaos.seed=$(CHAOS_SEED) \
		-chaos.queue-episodes=$(QUEUE_EPISODES) -chaos.fleet-episodes=$(FLEET_EPISODES) \
		-chaos.heal-episodes=$(HEAL_EPISODES)

# Fleet soak: spawn a 3-node in-process fleet, drive it at SOAK_QPS for
# SOAK_DURATION, and fail on a latency/shed SLO breach measured from the
# fleet's own /metrics. Point it at a real fleet with: go run ./cmd/loadgen
# -peers http://a:8080,http://b:8080 ...
soak:
	$(GO) run ./cmd/loadgen -spawn 3 -duration $(SOAK_DURATION) -qps $(SOAK_QPS) -misroute

# go accepts one -fuzz pattern per invocation, so each target gets its own.
fuzz:
	$(GO) test ./internal/sparse/ -run XXX -fuzz FuzzReadMatrixMarket -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sparse/ -run XXX -fuzz FuzzReadBinary -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sparse/ -run XXX -fuzz FuzzNewCSR -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sparse/ -run XXX -fuzz FuzzBitsetPack -fuzztime $(FUZZTIME)
	$(GO) test ./internal/plancache/ -run XXX -fuzz FuzzDecodeEntry -fuzztime $(FUZZTIME)
	$(GO) test ./internal/refine/ -run XXX -fuzz FuzzRefine -fuzztime $(FUZZTIME)

bench:
	$(GO) test ./internal/sparse/ -run XXX -bench 'Similarity|SpMV' -benchtime 10x
	$(GO) test ./internal/sparse/ -run XXX -bench 'ReadMatrixMarket|ReadBinary' -benchmem
	$(GO) test ./internal/plancache/ -run XXX -bench KeyCSR -benchmem
	$(GO) test ./internal/planserve/ -run XXX -bench HotHit -benchmem
	$(GO) test ./internal/fleet/ -run XXX -bench 'ForwardedHit|ForwardedMiss' -benchmem -cpu 2
	$(GO) test ./internal/cluster/ -run XXX -bench KMeans -benchtime 10x
	$(GO) test ./internal/core/ -run XXX -bench 'Eigensolve|Sweep' -benchtime 5x
	$(GO) test ./internal/core/ -run XXX -bench LanczosColdSparse -benchmem -benchtime 20x
	$(GO) test ./internal/eigen/ -run XXX -bench 'DenseSymEigen|LargestK32' -benchmem -benchtime 10x
	$(GO) test ./internal/eigen/ -run XXX -bench 'VectorKernels|ColdSparseSolveKernels' -cpu 1
	$(GO) test . -run XXX -bench AblationImplicitSimilarity -benchtime 10x

# Fast-path benchmark matrix: the similarity/eigensolver/k-means/sweep
# micro-benchmarks at each worker count (empty BOOTES_WORKERS = host max),
# then the end-to-end per-tier run behind BENCH_fastpath.json. Rerun after
# touching the similarity kernels, the LSH sparsifier, or the tier selector.
BENCH_MATRIX_WORKERS ?= 1 2 4 max
bench-matrix:
	for w in $(BENCH_MATRIX_WORKERS); do \
		if [ "$$w" = max ]; then unset BOOTES_WORKERS; else BOOTES_WORKERS=$$w; export BOOTES_WORKERS; fi; \
		echo "=== BOOTES_WORKERS=$${BOOTES_WORKERS:-max}"; \
		$(GO) test ./internal/sparse/ -run XXX -bench 'Similarity|SpMV' -benchtime 10x || exit 1; \
		$(GO) test ./internal/cluster/ -run XXX -bench KMeans -benchtime 10x || exit 1; \
		$(GO) test ./internal/core/ -run XXX -bench 'Eigensolve|Sweep' -benchtime 5x || exit 1; \
	done
	$(GO) run ./cmd/benchfast -rows 20000 -nnz 48 -workers 1,2,4,0 -seed 7 -reps 3 -out BENCH_fastpath.json

# Queue benchmark: fsync-acked enqueue throughput, cold journal replay at
# 10k jobs, and worker-pool drain throughput. Rerun after touching the
# journal, spool, or WFQ scheduler.
bench-queue:
	$(GO) run ./cmd/benchqueue -jobs 10000 -out BENCH_queue.json

report:
	$(GO) run ./cmd/benchsuite -scale 0.12 -jobs 4 -out report.txt
