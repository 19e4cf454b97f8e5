# Development entry points. `make check` is the pre-PR gate: it runs every
# test twice, plain (`test`, the only run of the allocation gates and timing
# comparisons, which skip themselves under -race or the verifier) and armed
# (`verify`).

GO ?= go

.PHONY: build test vet fmt-check loc cross skywayvet verify fuzz-smoke check bench-json bench-cmp bench-gate

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
# crc32c is vetted too: there it is hash/crc32 alone, without the amd64
# kernel.
cross:
	GOOS=linux GOARCH=s390x $(GO) build ./... && GOOS=linux GOARCH=s390x $(GO) vet ./internal/heap/ ./internal/core/ ./internal/serial/ ./internal/crc32c/

skywayvet:
	$(GO) run ./cmd/skywayvet ./...

# The one armed test pass: every test under the race detector with the
# heap/buffer invariant verifier enabled; the chaos matrices, the arena suite
# and the multi-process cluster are ordinary tests in it. The verifier reads
# SKYWAY_VERIFY at package init, which go test's result cache does not see,
# so this passes -count=1: without it, a run after `make test` replays that
# run's cached, verifier-free results.
verify:
	SKYWAY_VERIFY=1 $(GO) test -race -count=1 ./...

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
	$(GO) test -run '^$$' -fuzz FuzzUpdate -fuzztime $(FUZZTIME) ./internal/crc32c/

# The paper matrix (Fig. 3 / 8(a) / 8(b)) at the canonical smoke scale, in
# the schema of the checked-in BENCH_spark.json / BENCH_flink.json. Override
# BENCH_SCALE / BENCH_SF for bigger runs; BENCH_DIR is where generated files
# go (bench-json into the repo root rewrites the checked-in record). The
# Spark matrix builds 1 GB executor heaps and peaks above 6 GB RSS with no
# limit, so both runs default GOMEMLIMIT to 3GiB (about 4.8 GB peak); the
# limit moves only Go's collector, never an exact column.
BENCH_SCALE ?= 0.05
BENCH_SF    ?= 0.25
BENCH_DIR   ?= .

bench-json:
	mkdir -p $(BENCH_DIR)
	GOMEMLIMIT=$${GOMEMLIMIT:-3GiB} $(GO) run ./cmd/sparkbench -scale $(BENCH_SCALE) -bench-json $(BENCH_DIR)/BENCH_spark.json
	GOMEMLIMIT=$${GOMEMLIMIT:-3GiB} $(GO) run ./cmd/flinkbench -sf $(BENCH_SF) -bench-json $(BENCH_DIR)/BENCH_flink.json

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

check: build vet fmt-check cross skywayvet test verify
