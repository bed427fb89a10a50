# Local targets mirroring .github/workflows/ci.yml, so `make <job>`
# reproduces exactly what CI runs.

GO ?= go

.PHONY: all build vet fmt fmt-check test examples race bench ci \
	lint integration integration-race fuzz-smoke obs-smoke

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Rewrites files in place.
fmt:
	gofmt -w .

# The CI check: fails if any file needs formatting.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# bench/ is a module of its own that imports internal/; its fast tests
# are the only thing here that compiles it, so a refactor that breaks
# the wall-clock benchmark fails now instead of at the next benchmark
# run.
test:
	$(GO) test ./...
	bash bench/run.sh test

# Runs the four example programs end to end; a failed query exits
# non-zero. `go build` alone only proves they compile.
examples:
	@for ex in quickstart publications conference heterogeneous; do \
		echo "== examples/$$ex"; \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done

race:
	$(GO) test -race ./...

# Smoke: every benchmark once, so the report-only benchmarks stay
# runnable. The gates on the same scenarios are tests (`make test`;
# `go test -v -run 'MessageBudget|Scale' .` prints the measured values).
bench:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# staticcheck with the checked-in staticcheck.conf. CI pins the tool
# version (see .github/workflows/ci.yml); locally this expects
# staticcheck on PATH and is not part of the default `ci` target so a
# machine without it can still reproduce the test jobs.
lint:
	staticcheck ./...

# The multi-process suite: builds the node daemon, launches a
# loopback-TCP cluster of real OS processes, and requires exact
# equivalence with the in-process simnet reference (including the
# kill -9 churn case). Gated behind UNISTORE_INTEGRATION so plain
# `go test ./...` stays hermetic. The benchmark's real-daemon smoke
# then runs all four workloads at toy size against the simnet oracle —
# the check that the daemon still speaks the bench's line protocol.
integration:
	UNISTORE_INTEGRATION=1 $(GO) test -v -timeout 10m ./integration/
	BENCH_SMOKE=1 bash bench/run.sh test

# Same suite with both the harness and the daemon binary built -race.
integration-race:
	UNISTORE_INTEGRATION=1 UNISTORE_RACE=1 \
		$(GO) test -race -v -timeout 10m -count=1 ./integration/

# Observability smoke: boots a traced 3-process cluster with -debug
# endpoints and curls /metrics, /healthz, /trace/recent and pprof the
# way a monitoring stack would — core series must be non-zero and the
# ranked query's trace tree assembled. CI's integration job runs it.
obs-smoke:
	./scripts/obs-smoke.sh

# Bounded fuzzing of the wire payload codec, the TCP frame reader and
# WAL crash recovery: none may panic on arbitrary bytes, and whatever
# log prefix recovery accepts must round-trip a clean close.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodePayload -fuzztime 30s ./internal/pgrid/
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 30s ./internal/netx/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/store/wal/

ci: fmt-check build vet test examples race bench integration integration-race obs-smoke fuzz-smoke
