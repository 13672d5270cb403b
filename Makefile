# Development entry points. CI should run:
#   make build vet test alloc-gate explore-smoke   (test job)
#   make docs-check                                (docs/health job)
GO ?= go

.PHONY: build vet test alloc-gate bench bench-json bench-trend throughput-gate profile explore-smoke sample-smoke service-smoke spec-conformance symmetry-conformance weakmem-conformance experiments docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The parallel explorer is the repository's only real concurrency; keep the
# whole suite race-clean.
test: build vet
	$(GO) test -race ./...

# Allocation gate (CI's test job): the harness hot paths stay at zero heap
# allocations per run (the commitadopt n=3 tree walk; a warm x_safe_agreement
# Make+Fingerprint; a warm coverage-sampling probe; observing a snapshot's
# composite cells). The race detector changes allocation counts, so these
# tests skip under `make test` and run here without it.
alloc-gate: build
	$(GO) test -count=1 -run TestAllocs ./internal/explore/sessions ./internal/explore/sample ./internal/agreement

bench:
	$(GO) test -bench=. -benchmem .

# Perf trajectory: exhaustive-sweep throughput for every registered spec
# (sequential respawning baseline vs session-reuse vs parallel, each without
# and with state-dedup where the spec supports it) recorded as
# BENCH_explore.json. Fails if the best dedup runs-explored reduction drops
# below 2x.
bench-json: build
	$(GO) run ./cmd/benchexplore -o BENCH_explore.json

# Throughput trajectory: print the per-commit runs/sec series the trend
# tracker has recorded in BENCH_explore.json (see docs/PERFORMANCE.md).
bench-trend:
	$(GO) run ./cmd/benchexplore -print-trend -o BENCH_explore.json

# Throughput regression gate (CI's test job): re-measure the tracked trend
# cells and fail if runs/sec fell more than the tolerance below the last
# point recorded in the checked-in BENCH_explore.json. -trend-dry keeps the
# file unwritten; the generous tolerance absorbs runner-speed variance — the
# gate exists to catch order-of-magnitude hot-path regressions, not to
# benchmark CI hardware.
throughput-gate: build
	$(GO) run ./cmd/benchexplore -trend-only -trend-dry -trend-tolerance 0.6 \
		-commit "$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

# CPU+heap profile of the tracked throughput cell (the profile-first loop of
# docs/PERFORMANCE.md): writes cpu.prof / mem.prof for `go tool pprof`.
profile: build
	$(GO) run ./cmd/benchexplore -trend-only -commit profile -o "" -reps 3 \
		-cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

# Spec-registry conformance (CI's test job): the spectest suite — checker
# and fingerprint determinism, dedup/prune outcome-set preservation,
# sequential/parallel equality, capability honesty — over every registered
# spec on a bounded grid.
spec-conformance: build
	$(GO) test -race -count=1 -run TestConformanceAllSpecs ./internal/explore/spectest

# Symmetry-soundness gate (CI's test job): the spectest symmetry battery
# (orbit-canonical outcome preservation, permuted-script verdict invariance,
# byte-identical counterexamples) plus the benchexplore symmetry series with
# its orbit-collapse gate (commitadopt n=3 must collapse strictly, > 1x).
symmetry-conformance: build
	$(GO) test -race -count=1 -run 'TestSymmetry|TestPermuteScript|TestVisitedStore|TestOrbit' ./internal/explore/spectest ./internal/explore ./internal/sched
	$(GO) run ./cmd/benchexplore -symmetry-only -o ""

# Weak-memory differential gate (CI's test job): the spectest battery —
# atomic anchors (golden visited counts, default == explicit atomic),
# the regular-only monotonicity witness found/replayed/minimized, the
# tso-only SB split — plus the backend unit/race tests of internal/reg and
# the parallel weak-backend hammers (see docs/WEAK_MEMORY.md).
weakmem-conformance: build
	$(GO) test -race -count=1 -run 'TestBackendSpecsEnumerated|TestAtomicAnchors|TestRegularOnlyWitness|TestStoreBufferDifferential' ./internal/explore/spectest
	$(GO) test -race -count=1 ./internal/reg
	$(GO) test -race -count=1 -run 'TestWeakBackend' ./internal/explore/sessions

# Bounded exhaustive-exploration smoke: every cell is capped by -maxruns, so
# this can never hang CI even on pathological trees (the BG cell alone would
# otherwise be astronomically deep).
explore-smoke: build
	$(GO) run ./cmd/explore -list
	$(GO) run ./cmd/explore -object safe -n 2 -crashes 0,1 -maxruns 5000 -compare
	$(GO) run ./cmd/explore -object xsafe -n 2 -x 1,2 -crashes 1 -maxruns 5000 -prune
	$(GO) run ./cmd/explore -object commitadopt -n 2,3 -maxruns 5000 -prune
	$(GO) run ./cmd/explore -object commitadopt -n 2,3 -maxruns 5000 -dedup -compare
	$(GO) run ./cmd/explore -object xsafe -n 2 -x 1,2 -crashes 1 -maxruns 5000 -prune -dedup
	$(GO) run ./cmd/explore -object queue -n 3 -set ops=1 -crashes 0,1 -maxruns 20000 -dedup
	$(GO) run ./cmd/explore -object xcompete -n 3 -x 2 -crashes 1 -maxruns 5000 -prune -dedup
	$(GO) run ./cmd/explore -object registers -n 2 -set backend=regular -crashes 0 -maxruns 20000 -dedup -compare
	$(GO) run ./cmd/explore -object registers -n 2 -set backend=tso -crashes 0,1 -maxruns 20000 -dedup
	$(GO) run ./cmd/explore -object mlset -n 3 -set l=2 -crashes 0,1 -maxruns 20000 -prune -dedup
	$(GO) run ./cmd/explore -object renaming -n 2 -crashes 0,1 -maxruns 20000 -prune -dedup
	$(GO) run ./cmd/explore -object hierarchy -set base=tas,queue -crashes 0 -maxruns 20000 -prune -dedup
	$(GO) run ./cmd/explore -object universal -n 2 -set ops=1 -crashes 0,1 -maxruns 20000 -prune -dedup
	$(GO) run ./cmd/explore -object detector -n 2 -x 1 -steps 400 -maxruns 2000 -prune
	$(GO) run ./cmd/explore -object bg -n 2 -t 1 -steps 400 -maxruns 2000
	$(GO) run ./cmd/simrun -sim forward -n 4 -t1 3 -x1 2 -t2 1 -trace 5
	$(GO) run ./cmd/simrun -sim bg -n 4 -t1 1 -seed 7

# Bounded seeded schedule-sampling smoke: one PCT pass over EVERY registered
# spec (including BG, which exhaustive smokes can only truncate) at each
# spec's declared sampling budget, capped by -samples. Deterministic under
# the fixed seed; any property violation prints the reproducing script and
# (seed, index) pair.
sample-smoke: build
	$(GO) run ./cmd/explore -sample pct -allspecs -samples 2000 -seed 1
	$(GO) run ./cmd/explore -object bg -n 2 -t 1 -steps 400 -crashes 1 -sample swarm -samples 500 -seed 1
	$(GO) run ./cmd/explore -object commitadopt -n 3 -crashes 1 -sample walk -samples 2000 -seed 1

# End-to-end service smoke (CI's test job): the exploredd daemon on a
# loopback ephemeral port driven over HTTP — a violating exhaustive job with
# its replay artifact, a seeded BG sampling job resolving the spec's declared
# budgets, an identical resubmission answered from the content-addressed
# cache (hit counter asserted), cancellation of queued and running jobs, and
# the typed admission rejections — plus the CLI -json ↔ daemon record-parity
# battery (byte-identical replay scripts under the sequential engine). See
# docs/SERVICE.md.
service-smoke: build
	$(GO) test -race -count=1 -run TestServiceSmoke ./internal/service ./cmd/exploredd ./cmd/explore

# Docs/health gate (CI's docs job): formatting must be clean, vet must pass,
# and every relative link in README.md and docs/*.md must resolve.
docs-check:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/linkcheck README.md docs examples/README.md

experiments:
	$(GO) run ./cmd/experiments
