GO ?= go

.PHONY: all build test race bench \
	bench-json bench-smoke bench-survey bench-autotune \
	bce-check fmt vet check verify fuzz-smoke golden generate \
	generate-check hostcal hostcal-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# The one race gate: every package's tests under the race detector, at
# their testing.Short() sizes. New packages are covered by default; the
# full-size differential sweep runs under the detector in `verify`.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Wall-clock throughput across model x order x schedule, as JSON rows.
# BENCH_PR3.json in the repo root holds the committed before/after
# trajectory for the PR-3 kernel overhaul, produced from these runs.
BENCH_JSON ?= bench.json
bench-json:
	$(GO) build -o /tmp/wavebench ./cmd/wavebench
	/tmp/wavebench -mode wall -models acoustic,elastic,tti -orders 4,8 \
		-n 96 -steps 8 -tunesteps 2 -json > $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# Short-iteration benchmark smoke: tiny wall-mode sweep (spatial, WTB and
# pipelined columns) plus the scheduler/dist micro-benchmarks at one
# iteration each, and the tests of the benchmarks/ module — a module of its
# own that root `go test ./...` does not compile, although it imports this
# module's internal packages. Catches bit-rot in the measurement paths
# without the runtime cost of a real benchmark session.
bench-smoke:
	$(GO) build -o /tmp/wavebench ./cmd/wavebench
	/tmp/wavebench -mode wall -models acoustic -orders 4 \
		-n 48 -steps 4 -tunesteps 2 -schedule both > /dev/null
	$(GO) test ./internal/dist -run '^$$' -bench . -benchtime 1x
	$(GO) test ./internal/par -run '^$$' -bench BenchmarkForGrain -benchtime 1x
	cd benchmarks && $(GO) test ./wavemark

# Survey benchmark: the same N-shot acquisition as a per-shot wavesim.New
# loop vs the batch engine, emitted as benchdiff-compatible trajectory
# rows. BENCH_PR8.json in the repo root is the committed artifact.
BENCH_SURVEY_JSON ?= BENCH_PR8.json
bench-survey:
	$(GO) build -o /tmp/wavesurvey ./cmd/survey
	/tmp/wavesurvey -physics acoustic,elastic,tti -so 4 -n 48 -nbl 6 \
		-steps 12 -shots 6 -schedule wtb -json > $(BENCH_SURVEY_JSON)
	$(GO) run ./cmd/benchdiff $(BENCH_SURVEY_JSON) $(BENCH_SURVEY_JSON)
	@echo "wrote $(BENCH_SURVEY_JSON)"

# Full host characterization: STREAM-style bandwidth at every cache
# boundary, peak FLOP/s, cache geometry — persisted as the schema-versioned
# fingerprint that `-machine host`/auto attribution and the predictive
# autotuner consume. Takes a minute or two; run once per host (or after a
# hardware change), then `roofline -calibrate` to fit the 2-parameter
# correction.
HOSTCAL_OUT ?=
hostcal:
	$(GO) build -o /tmp/hostcal ./cmd/hostcal
	/tmp/hostcal $(if $(HOSTCAL_OUT),-o $(HOSTCAL_OUT))
	$(GO) build -o /tmp/roofline ./cmd/roofline
	/tmp/roofline -calibrate $(if $(HOSTCAL_OUT),-hostcal $(HOSTCAL_OUT))

# Seconds-fast smoke variant of host characterization: quick measurement to
# a scratch path, re-loaded through the staleness/host-mismatch checks.
# Proves the measure→persist→validate loop works on this machine without
# the cost (or the cache-side-effects) of a full run. Wired into `check`
# and CI; CI uploads the fingerprint JSON as an artifact.
HOSTCAL_SMOKE_OUT ?= /tmp/hostcal-smoke.json
hostcal-smoke:
	$(GO) build -o /tmp/hostcal ./cmd/hostcal
	/tmp/hostcal -quick -o $(HOSTCAL_SMOKE_OUT)
	/tmp/hostcal -check -o $(HOSTCAL_SMOKE_OUT)

# Sweep-vs-predict validation: quick fingerprint + calibration into a
# scratch path, then the predictive autotuner against the full sweep on the
# same candidates — tuning wall-clock, winner agreement and regret per
# scenario, as the committed BENCH_PR10.json artifact. The benchdiff
# self-diff proves the new report format round-trips through the loader.
BENCH_AUTOTUNE_JSON ?= BENCH_PR10.json
BENCH_AUTOTUNE_CAL ?= /tmp/hostcal-bench.json
bench-autotune:
	$(GO) build -o /tmp/hostcal ./cmd/hostcal
	$(GO) build -o /tmp/roofline ./cmd/roofline
	$(GO) build -o /tmp/autotune ./cmd/autotune
	/tmp/hostcal -quick -o $(BENCH_AUTOTUNE_CAL)
	/tmp/roofline -calibrate -hostcal $(BENCH_AUTOTUNE_CAL) -caln 32 -calreps 1
	/tmp/autotune -n 48 -predict -compare -json -machine host \
		-hostcal $(BENCH_AUTOTUNE_CAL) -models acoustic,tti -orders 4,8 \
		-tt 4 -tunesteps 4 -repeats 1 -tracen 32 > $(BENCH_AUTOTUNE_JSON)
	$(GO) run ./cmd/benchdiff $(BENCH_AUTOTUNE_JSON) $(BENCH_AUTOTUNE_JSON)
	@echo "wrote $(BENCH_AUTOTUNE_JSON)"

# Regenerate the radius-specialized stencil kernels and the dispatch
# registry from internal/wave/kerngen. The emitted files are committed;
# after editing the generator, run this and commit the diff together.
generate:
	$(GO) generate ./internal/wave

# Drift gate: the committed generated kernels must match what the generator
# emits. CI runs this so a hand-edit to a *_kern.go file (or a generator
# change without regeneration) fails the build instead of silently
# diverging.
generate-check: generate
	@if ! git -C . diff --exit-code --stat -- \
		'internal/wave/*_kern.go' internal/wave/kern_registry.go; then \
		echo "generate-check: committed kernels differ from generator output"; \
		echo "generate-check: run 'make generate' and commit the result"; \
		exit 1; \
	fi
	@echo "generate-check: generated kernels are in sync"

# Bounds-check-elimination gate: the radius-specialized kernels (*_kern.go)
# must compile with zero IsInBounds checks — the per-row sub-slice
# discipline documented in internal/wave/acoustic_kern.go makes the prove
# pass eliminate them all, and this target fails if a kernel edit
# reintroduces any. IsSliceInBounds (once-per-row slicing setup) is allowed.
bce-check:
	@out=$$($(GO) build -gcflags='-d=ssa/check_bce' ./internal/wave 2>&1 | \
		grep '_kern\.go' | grep 'Found IsInBounds'; exit 0); \
	if [ -n "$$out" ]; then \
		echo "bce-check: bounds checks reappeared in radius-specialized kernels:"; \
		echo "$$out"; exit 1; \
	fi; \
	echo "bce-check: kernels are bounds-check free"

# Differential verification sweep: VERIFY_N random scenarios through the
# schedule-equivalence oracle plus the metamorphic, fault-injection and
# golden-corpus tests, all under the race detector. A failing scenario
# prints its seed; replay it with
#   go test ./internal/verify -run TestVerifyScenarios -verify.seed=<N>
VERIFY_N ?= 50
VERIFY_SEED ?= 0
verify:
	$(GO) test -race ./internal/verify -verify.n=$(VERIFY_N) -verify.seed=$(VERIFY_SEED)

# Short deterministic pass over every native fuzz target (corpus + 10s of
# active fuzzing each). `go test -fuzz` accepts a single target per run, so
# each gets its own invocation.
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/fd -run=^$$ -fuzz=FuzzSecondDeriv -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/fd -run=^$$ -fuzz=FuzzFirstDeriv$$ -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/fd -run=^$$ -fuzz=FuzzStaggeredFirstDeriv -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/grid -run=^$$ -fuzz=FuzzRegion -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/core -run=^$$ -fuzz=FuzzMasks -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/serve -run=^$$ -fuzz=FuzzJobSpec -fuzztime=$(FUZZ_TIME)

# Regenerate the committed golden regression corpus. Only run this when a
# numerical change is intended and understood; commit the refreshed JSON
# together with the change that explains it.
golden:
	$(GO) test ./internal/verify -run TestGoldenCorpus -golden.update
	@git -C . status --short internal/verify/testdata/golden || true

check: build vet test race generate-check bce-check hostcal-smoke verify
