# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet lint bench bench-evolve bench-trial bench-fleet bench-hotpath bench-gate bench-compare alloc-budget fleet-determinism selector-determinism fuzz-smoke evaluate figures short cover race

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race -shuffle=on ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One pass over the evolution-engine benchmarks (cache hit rates + worker
# scaling); the CI smoke step runs exactly this.
bench-evolve:
	$(GO) test -run '^$$' -bench Evolve -benchtime 1x ./...

# Trial hot-path benchmarks; regenerates BENCH_trial.json with the current
# numbers next to the frozen pre-pooling baseline (see tools/benchjson).
BENCH_TRIAL = 'BenchmarkTrial|BenchmarkPacketRoundtrip|BenchmarkPacketMarshal|BenchmarkPacketParse|BenchmarkEngineApply|BenchmarkFullConnection'
bench-trial:
	$(GO) test -run '^$$' -bench $(BENCH_TRIAL) -benchmem -benchtime 2000x . | tee /tmp/bench_trial.txt
	$(GO) run ./tools/benchjson < /tmp/bench_trial.txt > BENCH_trial.json
	@cat BENCH_trial.json

# Deployment-harness throughput at the 10^5-connection workload; regenerates
# BENCH_fleet.json with conns/s across the worker ladder (see
# tools/benchjson -set fleet). The FleetResult is identical at every width —
# only the wall clock moves. Set GENEVA_FLEET_SMOKE=1 to add the
# 10^6-connection smoke rung (slow; see EXPERIMENTS.md).
bench-fleet:
	$(GO) test -run '^$$' -bench BenchmarkFleet -benchmem -benchtime 3x -timeout 30m . | tee /tmp/bench_fleet.txt
	$(GO) run ./tools/benchjson -set fleet < /tmp/bench_fleet.txt > BENCH_fleet.json
	@cat BENCH_fleet.json

# The fleet allocation gate: re-measure the fleet ladder (one iteration per
# rung, enough for allocs/op, which is deterministic) and compare against the
# committed BENCH_fleet.json. Catches per-connection or per-exchange alloc
# leaks in both the one-shot rungs and the keep-alive/reconnect longhorizon
# rung. CI runs exactly this in the fleet bench smoke.
bench-fleet-gate:
	$(GO) test -run '^$$' -bench BenchmarkFleet -benchmem -benchtime 1x -timeout 30m . | \
		$(GO) run ./tools/benchjson -compare BENCH_fleet.json -compare-metrics $(GATE_METRICS)

# The fleet determinism gate: the whole FleetResult must be bit-identical
# across the workers × GOMAXPROCS matrix (1/2/8 × 1/2/8 plus the default
# GOMAXPROCS), with a live residual ledger, under the race detector. CI runs
# exactly this.
fleet-determinism:
	$(GO) test -race -run 'TestFleetDeterminism|TestFleetMetricsMatchResult|TestFleetResidualLedgerProperty|TestFleetLongHorizonWorkerInvariance' -v . ./internal/fleet/

# The control-plane determinism gate: with online selection live (bandit
# pulls, barrier merges, a mid-run censor shift) the FleetResult must stay
# bit-identical across the workers × GOMAXPROCS matrix; with Selection unset
# it must be byte-identical to the committed goldens; a pinned portfolio must
# serve its first strategy only; and the collapse-and-recover scenario must
# hold. Runs under the race detector next to the selector's own unit
# determinism tests. CI runs exactly this.
selector-determinism:
	$(GO) test -race -run 'TestFleetSelectionDeterminism|TestFleetPinnedByteIdentity|TestFleetPinnedPortfolio|TestFleetCollapseAndRecover' -v .
	$(GO) test -race ./internal/selector/

# Hot-path microbenchmarks: the netsim event queue and the per-censor
# Process cost; regenerates BENCH_hotpath.json (see tools/benchjson -set
# hotpath).
BENCH_HOTPATH = 'BenchmarkEventQueue|BenchmarkCensorProcess'
bench-hotpath:
	$(GO) test -run '^$$' -bench $(BENCH_HOTPATH) -benchmem -benchtime 100000x . ./internal/netsim/ | tee /tmp/bench_hotpath.txt
	$(GO) run ./tools/benchjson -set hotpath < /tmp/bench_hotpath.txt > BENCH_hotpath.json
	@cat BENCH_hotpath.json

# The benchmark regression gate: re-measure the hot-path benchmarks and
# compare against the committed BENCH_hotpath.json. allocs/op is
# deterministic, so it gates everywhere; add ns/op locally with
# GATE_METRICS=ns,allocs (same-machine numbers only). CI runs exactly this.
GATE_METRICS ?= allocs
bench-gate:
	$(GO) test -run '^$$' -bench $(BENCH_HOTPATH) -benchmem -benchtime 100000x . ./internal/netsim/ | \
		$(GO) run ./tools/benchjson -compare BENCH_hotpath.json -compare-metrics $(GATE_METRICS)

# benchstat comparison against the committed BENCH_trial numbers
# (informational; benchstat is optional and never installed by this repo).
bench-compare:
	@command -v benchstat >/dev/null 2>&1 || { echo "benchstat not installed; skipping (go install golang.org/x/perf/cmd/benchstat@latest)"; exit 0; }
	$(GO) test -run '^$$' -bench $(BENCH_TRIAL) -benchmem -count 6 . > /tmp/bench_new.txt
	benchstat /tmp/bench_new.txt

# The allocation-budget tripwires: fail when the zero-alloc hot paths, the
# per-trial budget, or the fleet's per-connection budget regress. CI runs
# exactly this.
alloc-budget:
	$(GO) test -run 'TestAllocBudget|TestTrialAllocBudget|TestFleetAllocBudget' -v ./internal/packet/ ./internal/core/ ./internal/eval/ ./internal/fleet/

# Coverage-guided fuzzing bursts — the fuzz targets promoted from
# seed-corpus-only to live mutation. Go's fuzz engine takes one -fuzz
# pattern per package per invocation, so each target gets its own run.
# CI runs exactly this with the default budget.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz '^FuzzDNSQueryName$$' -fuzztime $(FUZZTIME) ./internal/apps/
	$(GO) test -fuzz '^FuzzExtractSNI$$' -fuzztime $(FUZZTIME) ./internal/apps/
	$(GO) test -fuzz '^FuzzHTTPParsers$$' -fuzztime $(FUZZTIME) ./internal/apps/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/packet/
	$(GO) test -fuzz '^FuzzTCPUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/packet/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz '^FuzzImpairments$$' -fuzztime $(FUZZTIME) ./internal/netsim/
	$(GO) test -fuzz '^FuzzEventQueue$$' -fuzztime $(FUZZTIME) ./internal/netsim/
	$(GO) test -fuzz '^FuzzIndiaProcess$$' -fuzztime $(FUZZTIME) ./internal/censor/india/
	$(GO) test -fuzz '^FuzzTMCProcess$$' -fuzztime $(FUZZTIME) ./internal/censor/tmc/

# Static checks: vet always; gocritic (checks like hugeParam — catching
# accidental by-value copies of packet structs) only when installed.
lint: vet
	@command -v gocritic >/dev/null 2>&1 && gocritic check ./... || echo "gocritic not installed; skipped"

evaluate:
	$(GO) run ./cmd/evaluate -trials 300

figures:
	$(GO) run ./cmd/waterfall -country china
	$(GO) run ./cmd/waterfall -country kazakhstan
