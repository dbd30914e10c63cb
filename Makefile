# Developer entry points. `make ci` is the gate a PR must pass; it mirrors
# the tier-1 verify from ROADMAP.md plus vet and the race detector.

GO ?= go

.PHONY: ci vet build test race bench-smoke bench experiments fuzz-smoke chaos

# `test` carries the allocation budgets (TestAllocBudgets, skipped under
# the race detector, whose instrumentation allocates).
ci: vet build test race bench-smoke chaos fuzz-smoke

# go vet, and formatting as a gate: any file gofmt would rewrite fails it.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "vet: gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector. -short skips the multi-second
# loopback-TCP sweeps (they run in plain `make test` and in E2/E7 below).
# -shuffle=on randomises test order so inter-test state dependencies fail
# loudly instead of hiding behind source order.
# The second line repeats the two no-intermediate-table contracts (callers
# hammering an object through 200 alternating applies; a DFM through 400
# transactional swaps), the transport's first-call race (64 callers racing
# the dials that publish each stripe), its pooled-request recycling (every
# way a call ends, shutdown included, with poison checks on) and batch
# sub-calls borrowing their args from the frame (8 callers, poison checks on),
# whose value is the schedules the detector sees.
race:
	$(GO) test -race -short -shuffle=on ./...
	$(GO) test -race -count=5 -run 'TestApplyNeverExposesAnIntermediateTable|TestCallersNeverSeeInsideATransaction|TestTCPFirstCallsSeeFullyBuiltConn|TestTCPServerRecyclesEachRequestOnce|TestBatchSubCallsBorrowArgsOverTCP' ./internal/core/ ./internal/dfm/ ./internal/transport/ ./internal/legion/

# One iteration of every benchmark plus the E9 overload experiment, a short
# end-to-end rollout (E11 drives canary waves, an SLO rollback, and a
# journal resume), and the E12 observability-plane drill (1% sampling with
# 100% incident retention): proves the bench harness still compiles and
# runs (and admission control still sheds and screens deadlines) without
# paying for a full calibrated run.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime=1x .
	$(GO) test -run 'TestRunE9|TestRunE11|TestRunE12' ./internal/harness/

bench:
	$(GO) test -bench . -benchmem .

# Regenerate the EXPERIMENTS.md tables and shape criteria.
experiments:
	$(GO) run ./cmd/dcdo-bench

# Bounded run of the native fuzz targets: the wire decoder, the store image
# loader and the state-delta applier must never panic on adversarial bytes,
# and a delta that is refused must leave the state untouched. FUZZTIME is per
# target.
FUZZTIME ?= 30s

fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecodeEnvelope -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz 'FuzzFrameRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzLoadStore -fuzztime $(FUZZTIME) ./internal/manager/
	$(GO) test -run xxx -fuzz FuzzApplyDelta -fuzztime $(FUZZTIME) ./internal/objstate/

# Crash/partition drills under the race detector: the E8 chaos experiment
# (manager killed mid-pass with a partitioned instance), the E11 rollout
# drill (SLO auto-rollback plus supervisor killed mid-wave and resumed),
# the E13 replication drill (primary replica and primary manager killed
# mid-load), the manager's concurrency, recovery, and standby-takeover
# contracts (the single-instance pass's crash images, durability points and
# torn journal batches among them), replica group fencing/failover and the delta-shipping
# fault matrix (dropped shipment, lost ack, backup behind base, promote /
# failover / expand / shrink / fence mid-stream, restore under writes — each
# ending byte-converged), and the supervisor's pause/abort-vs-widening race.
chaos:
	$(GO) test -race -run 'TestRunE8|TestRunE11|TestRunE13|TestRunE14' ./internal/harness/
	$(GO) test -race -run 'TestRecover|TestEvolveDropAdopt|TestConcurrentEvolveDropAdopt|TestCreateInstanceConcurrentDuplicate|TestFleetEvolution|TestProber|TestJournalShipping|TestStandby|TestShipperSync|TestEvolveReplicated|TestReconcile|TestPolicyRecover|TestSetPolicy|TestSinglePass|TestConcurrentSinglePasses|TestJournalBatch' ./internal/manager/
	$(GO) test -race ./internal/replica/
	$(GO) test -race -run 'TestRollout|TestSupervisor' ./internal/supervisor/
