GO ?= go

# Packages that run queries, ingest or scatter on several goroutines;
# they get the extra -race pass because they exercise real concurrency.
# internal/obs rides along: its counters and histograms are written from
# every one of those goroutines.
RACE_PKGS = . ./internal/core ./internal/store ./internal/httpapi ./internal/cbcd ./internal/obs ./internal/router

.PHONY: check vet build test race check-bench loc cover bench bench-plan faults chaos-router

# check is the full verification gate: static checks, build, all tests,
# the race detector over the engine packages, then the bench/ module.
check: vet build test race check-bench

# vet is go vet plus two docs lints: every exported s3_* family must be
# constructed at exactly one site and documented in docs/METRICS.md
# (scripts/check_metrics.sh), and every flag a README.md or docs/*.md
# shell block passes to a cmd/ command must exist in its main.go
# (scripts/check_flags.sh).
vet:
	$(GO) vet ./...
	sh scripts/check_metrics.sh
	sh scripts/check_flags.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# check-bench vets, builds and tests bench/, a Go module of its own
# that `go test ./...` at the root does not reach: an API change that
# breaks it fails here instead of failing the benchmark run.
check-bench:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test ./...

# loc prints the size ledger ROADMAP aim 2 reports: non-test Go lines
# outside bench/ (total and per package), test Go lines, flag
# definitions under cmd/ and exported metric families.
loc:
	sh scripts/loc.sh

# faults runs the chaos suite — the crash harness (a crash injected at
# every I/O operation of a randomized schedule), transient-fault and
# degraded-mode tests — under the race detector with a randomized
# schedule seed. The seed is printed by each test; rerun a failure with
# FAULT_SEED=<seed> make faults.
ifeq ($(origin FAULT_SEED), undefined)
FAULT_SEED := $(shell date +%s%N)
endif
faults:
	@echo "fault injection with FAULT_SEED=$(FAULT_SEED)"
	FAULT_SEED=$(FAULT_SEED) $(GO) test -race -count=1 \
		-run 'TestLiveIndex(CrashHarness|RetriesTransientFaults|DegradedMode|CompactionDegradedHeals|SealFailureLeavesNoOrphans)|TestOpenFault|TestLoadRecords(FaultyReadAt|ShortReadAt)|TestDegradedWrites503|TestColdRead' \
		./internal/core ./internal/store ./internal/httpapi ./internal/faultfs

# chaos-router runs the router's fault-injection suite under -race with
# a randomized schedule seed: flaky backends serving 503s, torn
# responses, hangs and slow replies behind the coordinator, asserting
# zero user-visible 5xx on strict queries, byte-identical merged
# answers, and metrics that account for every injected failure — plus
# the hedge rescue of a uniformly slow replica (hedged p99 at most half
# the unhedged, byte-identical bodies). Rerun a failure with
# FAULT_SEED=<seed> make chaos-router.
chaos-router:
	@echo "router chaos with FAULT_SEED=$(FAULT_SEED)"
	FAULT_SEED=$(FAULT_SEED) $(GO) test -race -count=1 \
		-run 'TestChaos|TestHedgeRescuesSlowReplica' ./internal/router

# cover prints per-package statement coverage (and leaves cover.out for
# `go tool cover -html=cover.out`).
cover:
	$(GO) test -cover -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem .

# bench-plan prints benchstat-ready samples of the planner
# micro-benchmarks (frontier, legacy, the engine's pooled plan path and
# the plan cache's hit path) over the 500k fingerprint corpus.
bench-plan:
	$(GO) test -run '^$$' -bench 'PlanStat' -benchmem -count 10 -cpu 1 .
