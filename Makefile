# Development entry points. `make check` is the pre-PR gate.

GO ?= go

.PHONY: build test vet fmt-check loc cross skywayvet sarif race verify chaos cluster-test arena-test fuzz-smoke check bench-json bench-cmp bench-gate benchmark benchmark-quick

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails, listing the files, when any .go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The size ROADMAP's guardrail asks every PR to report before → after:
# non-blank, non-comment lines of non-test .go files (analyzer fixtures
# excluded).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './internal/analyzers/testdata/*' -print0 | xargs -0 cat | grep -cvE '^[[:space:]]*($$|//)'

# Compile everything, and vet the slab layers, for a big-endian port: the
# slab's byte order is a rule of the code (internal/heap package comment),
# and this keeps a host assumption from coming back as a build constraint.
cross:
	GOOS=linux GOARCH=s390x $(GO) build ./... && GOOS=linux GOARCH=s390x $(GO) vet ./internal/heap/ ./internal/core/ ./internal/serial/

skywayvet:
	$(GO) run ./cmd/skywayvet ./...

# Full suite as SARIF 2.1.0, for code-scanning upload.
sarif:
	$(GO) run ./cmd/skywayvet -sarif ./... > skywayvet.sarif || true

race:
	$(GO) test -race ./...

# Full test suite with the heap/buffer invariant verifier enabled. The
# verifier reads SKYWAY_VERIFY at package init, which go test's result cache
# does not see, so every verifier-armed target here passes -count=1: without
# it, a run after `make test` or `make race` replays their cached results.
verify:
	SKYWAY_VERIFY=1 $(GO) test -count=1 ./...

# Chaos suite under the race detector: the failpoint matrix
# (internal/fault), the shuffle degradation-ladder tests (Spark jobs in
# internal/dataflow, Flink queries in internal/batch), and the registry
# replay/drop/delay tests plus the framed layer's deadline/redial tests, with
# the heap invariant verifier armed.
chaos:
	SKYWAY_VERIFY=1 $(GO) test -count=1 -race -run 'Chaos|Fault|Torn|TaskDie|FetchSlow|Exchange|Dial' \
		./internal/fault/ ./internal/dataflow/ ./internal/batch/ ./internal/registry/ ./internal/framed/ ./internal/core/

# Real multi-process cluster over loopback TCP: the test binary is the
# driver (registry daemon included) and spawns executor block-server
# processes via its re-exec trampoline; every shuffle block crosses real
# sockets twice. Includes the transport conformance suite (a Flink query
# among its inputs), the TCP chaos matrix (no block left on any server after
# a successful job), the block servers' buffer
# recycling (a block damaged while parked, a dropped block a GET still
# sends from, replace-while-fetch), the block path's allocation gate (which
# skips itself under -race), and the framed-connection and
# registry-protocol tests both conversations run on.
cluster-test:
	$(GO) test -race -run 'TestClusterWordCountOverTCPProcesses|TestTCPChaosMatrix|TestConformance|TestTornStream|TestTornStoredBlock|TestDroppedBlockWaits|TestReplaceAndFetch|TestWarmBlockExchange|TestSlowPeer|TestDialFailpoint|TestPooled|TestBadRequest' \
		./internal/dataflow/ ./internal/batch/ ./internal/transport/ ./internal/transport/tcp/
	$(GO) test -race ./internal/framed/ ./internal/registry/

# The arena suite: lazy-decode equivalence (eager vs. arena bit-identity,
# promotion-heavy variants), handle bounds/lifecycle unit tests, the
# steady-state allocation and full-GC-scan-independence gates, the arena
# chaos matrix, one pass of BenchmarkArrayRead (per-element and bulk reads on
# eager, arena and promoted arrays), and the core, serial, dataflow and batch
# packages under the race detector with the heap verifier armed — their
# skyway-arena rows then inflate every engine block's compact segments in
# place inside arena mappings.
arena-test:
	SKYWAY_VERIFY=1 $(GO) test -count=1 -race ./internal/arena/
	SKYWAY_VERIFY=1 $(GO) test -count=1 -race -run 'Arena|ArrayLongs' ./internal/heap/ ./internal/core/ ./internal/fault/
	SKYWAY_VERIFY=1 $(GO) test -count=1 -race -run '^$$' -bench ArrayRead -benchtime=1x -benchmem ./internal/core/
	SKYWAY_VERIFY=1 $(GO) test -count=1 -race ./internal/core/ ./internal/serial/ ./internal/dataflow/ ./internal/batch/

# Native fuzzing, smoke duration per target (override FUZZTIME for a soak).
FUZZTIME ?= 30s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReaderDecode -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzArenaHandle -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzTupleCodec -fuzztime $(FUZZTIME) ./internal/batch/
	$(GO) test -run '^$$' -fuzz FuzzSortByKey -fuzztime $(FUZZTIME) ./internal/dataflow/
	$(GO) test -run '^$$' -fuzz FuzzBaddrRoundTrip -fuzztime $(FUZZTIME) ./internal/heap/
	$(GO) test -run '^$$' -fuzz FuzzFrameRead -fuzztime $(FUZZTIME) ./internal/framed/
	$(GO) test -run '^$$' -fuzz FuzzRegistryPayload -fuzztime $(FUZZTIME) ./internal/registry/

# The paper matrix (Fig. 3 / 8(a) / 8(b)) at the canonical smoke scale, in
# the schema of the checked-in BENCH_spark.json / BENCH_flink.json. Override
# BENCH_SCALE / BENCH_SF for bigger runs; BENCH_DIR is where generated files
# go (bench-json into the repo root rewrites the checked-in record).
BENCH_SCALE ?= 0.05
BENCH_SF    ?= 0.25
BENCH_DIR   ?= .

bench-json:
	mkdir -p $(BENCH_DIR)
	$(GO) run ./cmd/sparkbench -scale $(BENCH_SCALE) -bench-json $(BENCH_DIR)/BENCH_spark.json
	$(GO) run ./cmd/flinkbench -sf $(BENCH_SF) -bench-json $(BENCH_DIR)/BENCH_flink.json

# The matrix gate: every checked-in cell must be present in the generated
# files with identical bytes, records, collections and buffer peak. Exact, so
# host noise cannot fail it; the time columns are printed, not judged.
bench-cmp:
	$(GO) run ./cmd/benchcmp BENCH_spark.json $(BENCH_DIR)/BENCH_spark.json
	$(GO) run ./cmd/benchcmp BENCH_flink.json $(BENCH_DIR)/BENCH_flink.json

# The time gate: build the repository benchmark at $(BASE) and at the working
# tree, run each BENCH_RUNS times (seeds 1..N, about 3.5 minutes a run), and
# exit with `benchmark -compare`'s status — non-zero on a `regressed` metric
# or an exact count that differs, never on `unresolved`. The base is a `git
# archive` export under $(BENCH_DIR)/.bench-gate, removed on the way out; the
# two result files stay in $(BENCH_DIR).
BASE       ?= HEAD~1
BENCH_RUNS ?= 3

bench-gate:
	set -e; out="$(abspath $(BENCH_DIR))"; tmp="$$out/.bench-gate"; \
	rm -rf "$$tmp"; mkdir -p "$$tmp/base"; trap 'rm -rf "$$tmp"' EXIT; \
	git archive $(BASE) | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/benchmark-base" ./benchmark); \
	$(GO) build -o "$$tmp/benchmark-head" ./benchmark; \
	(cd "$$tmp/base" && "$$tmp/benchmark-base" -runs $(BENCH_RUNS) -out "$$tmp/out-base" -o "$$out/benchmark-base.json"); \
	"$$tmp/benchmark-head" -runs $(BENCH_RUNS) -out "$$tmp/out-head" -o "$$out/benchmark-head.json"; \
	"$$tmp/benchmark-head" -compare "$$out/benchmark-base.json" "$$out/benchmark-head.json"

# The repository benchmark (benchmark/README.md, BENCHMARK.json): five
# workloads over real loopback sockets, untraced then traced, about 3.5
# minutes. benchmark-quick is its smoke test: every workload at tiny sizes.
benchmark:
	$(GO) run ./benchmark

benchmark-quick:
	$(GO) test ./benchmark

check: build vet fmt-check cross skywayvet race
