# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet lint bench-smoke alloc-budget pool-safety eval-determinism differential metrics-determinism fleet-determinism selector-determinism fuzz-smoke evaluate figures short cover race

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

# The benchmark module (bench/) is its own Go module, so the root
# `go test ./...` never builds it; this vets and tests it under the race
# detector so an internal API change that breaks the harness fails here.
# Measurements themselves come from `bash bench/run.sh` (see
# bench/README.md). CI runs exactly this.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...

# The evaluation-engine determinism gate: the parallel, cached population
# engine must score every strategy bit-identically to a fresh Rate at every
# GOMAXPROCS, reseeded generators must draw what fresh ones do, and the GFW
# ablations must measure the registry's China model.
# CI's race, shuffled test step already runs these tests; this target runs
# them alone.
eval-determinism:
	$(GO) test -race -shuffle=on -run 'Deterministic|BatchMatchesSequential|BatchSeam|Evaluator|FitnessCache|EvolveWithStats|RandBitIdentical|ReseedBitIdentical|AblationsMeasureRegistryModel' ./...

# The cross-censor differential matrix: every censor × protocol × strategy
# cell classified by failure cause and locked against testdata, plus the
# registry's structural checks. CI's race, shuffled test step already runs
# these tests; this target runs them alone.
differential:
	$(GO) test -race -run 'TestDifferential|TestRegistry' ./internal/eval/

# Metrics observe and never steer: rates must be bit-identical with metrics
# on and off, and counter totals identical at any worker width. CI's race,
# shuffled test step already runs these tests; this target runs them alone.
metrics-determinism:
	$(GO) test -race -shuffle=on -run 'TestMetrics' ./internal/eval/

# The fleet determinism gate: the whole FleetResult must be bit-identical
# across the workers × GOMAXPROCS matrix (1/2/8 × 1/2/8 plus the default
# GOMAXPROCS), with a live residual ledger, under the race detector. The
# second line runs the 75,900-connection cell that fills the GFW's flow
# table, which skips itself under -race. CI runs exactly this.
fleet-determinism:
	$(GO) test -race -run 'TestFleetDeterminism|TestFleetMetricsMatchResult|TestFleetResidualLedgerProperty|TestFleetLongHorizonWorkerInvariance' -v . ./internal/fleet/
	$(GO) test -run 'TestFleetDeterminismFullFlowTable' -v .

# The control-plane determinism gate: with online selection live (bandit
# pulls, barrier merges, a mid-run censor shift) the FleetResult must stay
# bit-identical across the workers × GOMAXPROCS matrix; with Selection unset
# it must be byte-identical to the committed goldens; a pinned portfolio must
# serve its first strategy only; and the collapse-and-recover scenario must
# hold. Runs under the race detector next to the selector's own unit
# determinism tests. CI's race, shuffled test step already runs these
# tests; this target runs them alone.
selector-determinism:
	$(GO) test -race -run 'TestFleetSelectionDeterminism|TestFleetPinnedByteIdentity|TestFleetPinnedPortfolio|TestFleetCollapseAndRecover' -v .
	$(GO) test -race ./internal/selector/

# The allocation-budget tripwires: fail when the zero-alloc hot paths (the
# event queue, timers and keep-alive delayed sends, pooled packets,
# compiled triggers and tampers, the DPI's in-place name reading, blocklist
# matching, obs counters), the per-censor connection budgets, the
# per-trial budget, or the fleet's per-connection budgets regress. Every budget is an exact mean (internal/allocs). Allocation
# counts are deterministic, so these gate on any host. CI runs exactly this.
alloc-budget:
	$(GO) test -run 'TestAllocBudget|TestTrialAllocBudget|TestFleetAllocBudget|ZeroAlloc|NoAlloc' -v ./internal/apps/ ./internal/netsim/ ./internal/packet/ ./internal/core/ ./internal/censor/ ./internal/eval/ ./internal/fleet/ ./internal/obs/

# Pool safety: GODEBUG=clobberfree poisons freed memory, so if any
# recycled packet buffer is still referenced, the bit-identical recycling
# tests diverge, a reset network must hand back every queued packet once,
# a network must deliver each injection of a verdict that borrows its
# box's scratch exactly once and in order, a reset censor must reuse its
# flow slots as a fresh one starts, a recycled trial rig must still match
# a fresh one, a reset sandbox must clear its pins and keep only the
# engines whose strategies print the same, a pooled fleet cell reset for
# a run must still match a fresh one, and the cell pool must balance (no
# cell pooled twice, every pooled cell wired). CI runs exactly this.
pool-safety:
	GODEBUG=clobberfree=1 $(GO) test -run 'TestPool|TestRecycling|TestVerdictBorrow|TestRigReset|TestSandbox|TestCensorReset|TestCellReset|TestCellPools' ./internal/packet/ ./internal/netsim/ ./internal/censor/... ./internal/eval/ ./internal/fleet/

# Coverage-guided fuzzing bursts — the fuzz targets promoted from
# seed-corpus-only to live mutation. Go's fuzz engine takes one -fuzz
# pattern per package per invocation, so each target gets its own run.
# CI runs exactly this with the default budget; every seed corpus also
# replays in CI's race, shuffled test step.
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
	$(GO) test -fuzz '^FuzzDPIProcess$$' -fuzztime $(FUZZTIME) ./internal/censor/
	$(GO) test -fuzz '^FuzzGFWProcess$$' -fuzztime $(FUZZTIME) ./internal/censor/gfw/
	$(GO) test -fuzz '^FuzzKazakhProcess$$' -fuzztime $(FUZZTIME) ./internal/censor/kazakh/
	$(GO) test -run '^FuzzRandBitIdentical$$' -fuzz '^FuzzRandBitIdentical$$' -fuzztime $(FUZZTIME) ./internal/eval/

# Static checks: vet and gofmt always; gocritic (checks like hugeParam —
# catching accidental by-value copies of packet structs) only when installed.
lint: vet
	test -z "$$(gofmt -l .)"
	@command -v gocritic >/dev/null 2>&1 && gocritic check ./... || echo "gocritic not installed; skipped"

evaluate:
	$(GO) run ./cmd/evaluate -trials 300

figures:
	$(GO) run ./cmd/evaluate -experiment figure1
	$(GO) run ./cmd/evaluate -experiment figure2
