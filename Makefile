# Convenience targets for the TDFM reproduction.

.PHONY: build test test-race nofma chaos serve-chaos swap-chaos grid-chaos bench bench-serve bench-mem bench-parallel repro examples vet lint fmt clean

# Worker-pool size for bench-parallel (the serial leg always runs at 1).
WORKERS ?= 4

build:
	go build ./...

vet:
	go vet ./...

# Static-analysis gate: the full tdfmlint pass suite — nodeterminism,
# maporder, errwrap, paniccontract, docs, poolown, lockdiscipline — over
# every package
# (DESIGN.md §7, "Static-analysis gates").
lint:
	go run ./cmd/tdfmlint ./internal/... ./cmd/... .

fmt:
	gofmt -w .

# Default quality gate: the static-analysis suite (doc coverage
# included), the full unit/integration suite, and a race-detector pass
# over the new obs subsystem (journal appends and sinks are exercised
# concurrently by pool workers).
test: lint
	go test ./...
	go test -race ./internal/obs/... ./internal/serve/... ./internal/dist/...

# Race-detector pass over the whole module (quality gate, DESIGN.md §6).
# internal/experiment trains whole grids and needs about 11 minutes under
# -race on a two-core host, past go test's 10-minute default.
test-race:
	go test -race -timeout 30m ./...

# Portability gate for the determinism contract (DESIGN.md §14): the
# arm64 compiler fuses `c += x*y` into one FMADDD, whose single rounding
# changes bits, unless the product is written E(x*y). Fail if the arm64
# assembly of any package in the module contains a fused multiply-add.
nofma:
	@out=$$(GOARCH=arm64 go build -gcflags='tdfm/...=-S' ./... 2>&1) || { echo "$$out" >&2; exit 1; }; \
	 fused=$$(echo "$$out" | awk '/STEXT/ {fn = $$1} /FN?M(ADD|SUB)[DS]/ {print fn ": " $$0}'); \
	 if [ -n "$$fused" ]; then echo "fused multiply-add in the module (arm64):" >&2; echo "$$fused" >&2; exit 1; fi; \
	 echo "nofma: no fused multiply-add in the module (arm64)"

# Fault-tolerance suite: the chaos harness plus every test that injects
# faults through it, under the race detector (recovery and retry paths
# run concurrently with pool workers).
chaos:
	go test -race ./internal/chaos/...
	go test -race -run 'Chaos|Injected|Diverge|Panic|Retry|Cancel|Timeout|Recover' \
	    ./internal/core/... ./internal/experiment/... ./internal/parallel/...

# Serving-layer fault suite (DESIGN.md §8): degraded quorum, breaker
# trips and recovery, load shedding, drain, and per-request event
# ordering — all under the race detector on an injected fake clock.
serve-chaos:
	go test -race ./internal/serve/...

# Hot-swap/supervision acceptance suite (DESIGN.md §11): the registry's
# corruption/concurrency contract, then the registry → hot-swap →
# supervision pipeline — an atomic swap under sustained load with zero
# dropped requests and byte-identical votes, and a member crash that
# degrades the quorum, restarts under supervision, and heals — every
# timing path on a FakeClock (zero wall-clock sleeps), under the race
# detector.
swap-chaos:
	go test -race -count=1 ./internal/registry/...
	go test -race -count=1 -run '^TestSwapChaos' ./internal/serve/

# Distributed-grid acceptance suite (DESIGN.md §13): the lease protocol
# unit tests, the HTTP surface, and the grid-chaos gate — a full
# distributed run on a FakeClock with a worker killed mid-cell and one
# partitioned past its lease deadline, whose CSV and journal must be
# bitwise-identical to the single-process run — under the race detector
# with zero wall-clock sleeps. SHORT=1 trains one epoch per cell and
# runs only the gate: the CI smoke mode.
grid-chaos:
ifdef SHORT
	TDFM_GRID_SHORT=1 go test -race -count=1 -run '^TestGridChaos$$' -timeout 20m ./internal/dist/
else
	go test -race -count=1 -timeout 30m ./internal/dist/
endif

# Full benchmark suite: regenerates every table/figure once (tiny scale).
bench:
	go test -bench=. -benchmem -timeout 120m ./...

# Serving/tensor benchmark trajectory: regenerate the committed
# BENCH_serve.json (one B-row fan-out vs B one-row fan-outs and B
# concurrent one-row requests at B=1/8/32/128, plus the 32-row memory
# rows) and BENCH_tensor.json (batched vs per-example Im2Col+MatMul)
# baselines.
# SHORT=1 runs a trimmed grid into /tmp instead — the CI smoke mode,
# which exercises the emission path without touching the committed
# numbers (CI hardware is not "the same hardware").
bench-serve:
ifdef SHORT
	TDFM_BENCH_OUT=/tmp/BENCH_serve.json TDFM_BENCH_SHORT=1 \
	    go test -run '^TestEmitServeBenchJSON$$' -v -timeout 30m ./internal/serve/
	TDFM_BENCH_OUT=/tmp/BENCH_tensor.json TDFM_BENCH_SHORT=1 \
	    go test -run '^TestEmitTensorBenchJSON$$' -v -timeout 30m ./internal/tensor/
else
	TDFM_BENCH_OUT=$(CURDIR)/BENCH_serve.json \
	    go test -run '^TestEmitServeBenchJSON$$' -v -timeout 60m ./internal/serve/
	TDFM_BENCH_OUT=$(CURDIR)/BENCH_tensor.json \
	    go test -run '^TestEmitTensorBenchJSON$$' -v -timeout 60m ./internal/tensor/
endif

# Memory benchmarks (DESIGN.md §10): pooled vs unpooled allocation rates
# for the training loop, the serving predict path, and the conv kernels,
# plus the fresh storage of a conv pass and of a request through core
# members with pooling off. The allocs/op and B/op
# columns are the point — EXPERIMENTS.md quotes them. SHORT=1 caps each
# benchmark at a few iterations: the CI smoke mode, which proves the
# benchmarks still run without paying for stable numbers.
bench-mem:
ifdef SHORT
	go test -run '^$$' -bench '^BenchmarkAlloc|^BenchmarkConvUnpooled|^BenchmarkPredictCore' \
	    -benchmem -benchtime 2x -timeout 30m \
	    ./internal/core/ ./internal/serve/ ./internal/tensor/
else
	go test -run '^$$' -bench '^BenchmarkAlloc|^BenchmarkConvUnpooled|^BenchmarkPredictCore' \
	    -benchmem -timeout 60m \
	    ./internal/core/ ./internal/serve/ ./internal/tensor/
endif

# Parallel-speedup check (E11): run the §IV-E overhead grid serially and at
# $(WORKERS) workers, then print the wall-clock ratio.
bench-parallel:
	@echo "== BenchmarkOverhead, 1 worker =="
	@TDFM_WORKERS=1 go test -run '^$$' -bench '^BenchmarkOverhead$$' -benchtime 1x -timeout 60m . | tee /tmp/tdfm_bench_serial.txt
	@echo "== BenchmarkOverhead, $(WORKERS) workers =="
	@TDFM_WORKERS=$(WORKERS) go test -run '^$$' -bench '^BenchmarkOverhead$$' -benchtime 1x -timeout 60m . | tee /tmp/tdfm_bench_par.txt
	@s=$$(awk '/^BenchmarkOverhead/ {print $$3}' /tmp/tdfm_bench_serial.txt); \
	 p=$$(awk '/^BenchmarkOverhead/ {print $$3}' /tmp/tdfm_bench_par.txt); \
	 awk -v s="$$s" -v p="$$p" -v w="$(WORKERS)" 'BEGIN { printf "speedup at %s workers: %.2fx (%.0f ns/op serial, %.0f ns/op parallel)\n", w, s/p, s, p }'

# Regenerate the entire paper via the CLI (higher fidelity than `bench`).
repro:
	go run ./cmd/tdfmbench -exp all -reps 3

examples:
	go run ./examples/quickstart
	go run ./examples/techniquepicker -reps 1
	go run ./examples/trafficsign
	go run ./examples/pneumonia

clean:
	rm -f test_output.txt bench_output.txt
