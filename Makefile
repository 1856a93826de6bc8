# Development entry points. `make check` is what CI runs: vet, build,
# the full test suite under the race detector (the parallel stage-B
# worker pool in internal/solver must stay race-clean), the coverage
# ratchet on the fault-critical packages, and a short smoke run of
# every native fuzz target.

GO ?= go
FUZZTIME ?= 30s
COVER_FLOOR ?= 90.0
COVER_PKGS = ./internal/dist ./internal/solver
BENCH_PKGS = ./internal/dist ./internal/solver ./internal/mat ./internal/rng ./internal/sparse
BENCH_THRESHOLD ?= 15
BENCH_COUNT ?= 3

.PHONY: check vet build test race bench bench-smoke bench-json bench-baseline bench-compare cover fuzz-smoke staticcheck loc-guard serving-smoke

check: vet staticcheck loc-guard build race cover bench-json serving-smoke fuzz-smoke

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The tool is optional locally (no network
# installs in the dev container); CI installs it and the gate is hard
# there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
	  staticcheck ./... ; \
	else \
	  echo "staticcheck: not installed, skipping (CI runs it)"; \
	fi

# Source-size ratchet: no non-test Go file may exceed 500 lines. This
# is the pressure that keeps engines on the shared solvercore runtime
# instead of growing private copies of the round loop. Never raise the
# limit; split the file.
loc-guard:
	@bad=$$(find . -name '*.go' ! -name '*_test.go' -not -path './.git/*' \
	  -exec awk 'END { if (NR > 500) print FILENAME ": " NR " lines" }' {} \;); \
	if [ -n "$$bad" ]; then \
	  echo "loc-guard: files over 500 lines:" >&2; echo "$$bad" >&2; exit 1; \
	fi; \
	echo "loc-guard: all non-test Go files within 500 lines"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage ratchet: the packages holding the fault-injection layer and
# the solver's degradation logic must stay at or above COVER_FLOOR.
# Raise the floor when coverage rises; never lower it.
cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	  { echo "coverage $$total% fell below the $(COVER_FLOOR)% floor" >&2; exit 1; }

# Each native fuzz target runs for FUZZTIME; any crasher fails the build.
fuzz-smoke:
	$(GO) test -run NONE -fuzz '^FuzzFaultPlan$$' -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run NONE -fuzz '^FuzzWireFrame$$' -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run NONE -fuzz '^FuzzI8Codec$$' -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run NONE -fuzz '^FuzzPackedCholesky$$' -fuzztime $(FUZZTIME) ./internal/mat
	$(GO) test -run NONE -fuzz '^FuzzReadLIBSVM$$' -fuzztime $(FUZZTIME) ./internal/data
	$(GO) test -run NONE -fuzz '^FuzzLIBSVMIndices$$' -fuzztime $(FUZZTIME) ./internal/data
	$(GO) test -run NONE -fuzz '^FuzzParseGroups$$' -fuzztime $(FUZZTIME) ./internal/prox
	$(GO) test -run NONE -fuzz '^FuzzSampleWithoutReplacement$$' -fuzztime $(FUZZTIME) ./internal/rng
	$(GO) test -run NONE -fuzz '^FuzzSupportMulVecT$$' -fuzztime $(FUZZTIME) ./internal/sparse

# serving-smoke is the service-level acceptance gate: loadgen drives an
# in-process server through the canonical 64-request lambda-path sweep
# and fails unless every request succeeds and the lambda-path warm-start
# cache clears a 50% hit rate. The latency-histogram report is the
# loadgen-report.json artifact CI archives per commit.
serving-smoke:
	$(GO) run ./cmd/loadgen -selfserve -n 64 -sweep -sweep-len 16 -conc 4 \
	  -seed 1 -procs 2 -min-hit-rate 0.5 -o loadgen-report.json

bench:
	$(GO) test -run NONE -bench . -benchtime=1x .

# One iteration of every dist/solver benchmark: a cheap end-to-end
# smoke of both round loops (blocking and pipelined) and the
# nonblocking collectives, without the noise of a timed run.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime=1x ./internal/dist ./internal/solver

# bench-json is bench-smoke plus the Gram/MulVec kernel benchmarks,
# converted into the BENCH_results.json artifact (ns/op, allocs and
# the modeled words metrics) that CI archives per commit. Subsumes
# bench-smoke in `make check`: a benchmark failure fails the convert.
bench-json:
	$(GO) test -run NONE -bench . -benchtime=1x $(BENCH_PKGS) > bench.out || \
	  { cat bench.out; rm -f bench.out; exit 1; }
	@cat bench.out
	$(GO) run ./cmd/benchjson -o BENCH_results.json < bench.out
	@rm -f bench.out

# bench-baseline refreshes the committed BENCH_results.json with the
# minimum of BENCH_COUNT repeats per benchmark — the baseline the
# bench-compare gate measures regressions against. Re-run and commit
# it when a change legitimately moves a benchmark.
bench-baseline:
	$(GO) test -run NONE -bench . -benchtime=1x -count $(BENCH_COUNT) \
	  $(BENCH_PKGS) > bench.out || { cat bench.out; rm -f bench.out; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_results.json < bench.out
	@rm -f bench.out

# bench-compare fails when any benchmark's best-of-BENCH_COUNT ns/op
# regresses more than BENCH_THRESHOLD percent against the committed
# baseline. Benchmarks added or retired since the baseline are
# reported but never fail the gate. It also enforces the cross-run
# claims within the fresh run: BenchmarkActiveSetSolve must not exceed
# BenchmarkDenseSolveBaseline ns/op (screening has to win on measured
# time, not just modeled words), and the BenchmarkTierRoundWords ladder
# must ship strictly fewer modeled words/round at every rung down the
# quantized collective ladder (f64 > f32 > i8).
bench-compare:
	$(GO) test -run NONE -bench . -benchtime=1x -count $(BENCH_COUNT) \
	  $(BENCH_PKGS) > bench.out || { cat bench.out; rm -f bench.out; exit 1; }
	$(GO) run ./cmd/benchjson -compare BENCH_results.json \
	  -threshold $(BENCH_THRESHOLD) < bench.out
	@rm -f bench.out
