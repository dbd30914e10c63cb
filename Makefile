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
# The second line repeats the no-intermediate-table contracts (callers
# hammering an object through 200 alternating applies, once by full
# descriptor and once by planned change; a DFM through 400 transactional
# swaps), the DFM's reused fast-path rows (an untouched entry keeps its row
# while callers share it through 200 swaps of another; an exported flip and
# EnableLatency replace rows, the flip only once its transaction publishes),
# the transport's first-call race (64 callers racing
# the dials that publish each stripe), its pooled-request recycling (every
# way a call ends, shutdown included, with poison checks on), batch
# sub-calls borrowing their args from the frame (8 callers, poison checks on),
# the client failure table's route parity (every row met by a single call
# and by a batch sub-call), the server's reused handler goroutines (parked
# between requests, capped, gone after Close; slow handlers never stall the
# requests behind them), the wire decoder's name intern table (8 decoders
# at once across its clears), and the caller-side release contracts (every
# dialer lets go of a request once Call returns; a backup read's pooled
# wrapper survives an echo that hands it back; every response a caller
# recycles leaves its result intact, over TCP, inproc and a lossy dialer,
# batch runs, remote errors and a handler answering with its own request
# included; both ends of a batch frame release their pooled run of
# sub-envelopes exactly once, after its last read, on malformed, miscounted
# and expired frames too, and batch results outlive 1,000 later batches over
# TCP and inproc; a failed shipment's frame is
# never rewritten; a value Get returned survives in-place writes), the
# client's wait for a moved binding (a partitioned endpoint's call waits out
# a delayed failover; one whose binding never moves ends at MaxRebinds, or
# at MaxAttempts once its rebinds are spent, budget or not) and
# an idempotent batch spread over a degree-3 group's backups, whose value is
# the schedules the detector sees.
race:
	$(GO) test -race -short -shuffle=on ./...
	$(GO) test -race -count=5 -run 'TestApplyNeverExposesAnIntermediateTable|TestPlannedApplyNeverExposesAnIntermediateTable|TestCallersNeverSeeInsideATransaction|TestUntouchedEntryKeepsItsRow|TestExportedFlipPublishesWithTheTransaction|TestEnableLatencyRebuildsRows|TestTCPFirstCallsSeeFullyBuiltConn|TestTCPServerRecyclesEachRequestOnce|TestTCPServerReusesHandlers|TestTCPSlowHandlerDoesNotBlockPipelinedCalls|TestDecodeInternsNames|TestBatchSubCallsBorrowArgsOverTCP|TestRoutesAgreeOnEveryFailure|TestCallLeavesRequestToCaller|TestBackupReadEchoKeepsItsResult|TestResponsesOutliveTheirRelease|TestBatchRunsOutliveTheirRelease|TestDroppedShipmentFrameNotReused|TestGetSurvivesLaterWrites|TestSafeFailureWaitsForTheBinding|TestWaitForBindingEndsAtMaxRebinds|TestWaitWithBudgetEndsAtMaxAttempts|TestIdempotentBatchReadsOffBackups' ./internal/core/ ./internal/dfm/ ./internal/transport/ ./internal/wire/ ./internal/legion/ ./internal/rpc/ ./internal/objstate/ ./internal/replica/

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

# Bounded run of the native fuzz targets: the wire decoder (a batch run
# decoded into a dirty reused run must equal one decoded into nil), the store image
# loader, the state-delta applier and every declared method's argument and
# result decoders must never panic on adversarial bytes, and a delta that is
# refused must leave the state untouched. FUZZTIME is per target.
FUZZTIME ?= 30s

fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecodeEnvelope -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz 'FuzzFrameRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzDecodeBatchRun -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzLoadStore -fuzztime $(FUZZTIME) ./internal/manager/
	$(GO) test -run xxx -fuzz FuzzApplyDelta -fuzztime $(FUZZTIME) ./internal/objstate/
	$(GO) test -run xxx -fuzz FuzzDeclaredDecoders -fuzztime $(FUZZTIME) ./internal/manager/

# Crash/partition drills under the race detector: the E8 chaos experiment
# (manager killed mid-pass with a partitioned instance), the E11 rollout
# drill (SLO auto-rollback plus supervisor killed mid-wave and resumed),
# the E13 replication drill (primary replica and primary manager killed
# mid-load), the E14 distribution-policy drill, the E15 batch drill (seeded
# faults under batched load: the at-most-once proof for batch sub-calls,
# which settle through the client failure table), the testbed E8, E11, E13
# and E14 stand their clusters up with (a build, one call on each kind of
# object and a teardown pass its goroutine guard; a goroutine leaked past
# teardown fails it; its declared greet and counter functions answer an
# unknown name and a truncated argument as their declarations promise, with
# their payload bytes pinned), the manager's concurrency, recovery, and standby-takeover
# contracts (the single-instance pass's crash images, durability points and
# torn journal batches among them, and a replica group's rollback and
# half-evolved recovery moving every member: TestRollbackMovesEveryReplica
# and TestRecoverFinishesHalfEvolvedGroup, which TestRecover's prefix runs;
# so does TestRecoverWithEndedCtxKeepsPassOpen, a Recover whose ctx has ended
# leaving the pass it could not finish open for the next one),
# replica group fencing/failover and the delta-shipping
# fault matrix (dropped shipment, lost ack, backup behind base, promote /
# failover / expand / shrink / fence mid-stream, restore under writes — each
# ending byte-converged), the supervisor's pause/abort-vs-widening race, and
# the declared-method drills: a component fetch through 25% lost responses
# on 20 seeds, the three retrying method tables' contract (reads retry
# through a lost response, writes end ambiguous having run once) and the
# endpoint-addressed tables' (agent, health, obs, mgr.repl here; repl.*,
# replhost and rollout in their packages' runs). TestStandby includes the
# standby fence racing shipments against takeovers. The supervisor line's
# TestRollout prefix also runs the rollout stop contracts: a rollout whose
# ctx ends mid-wave or mid-bake parks open and Resume finishes it, a
# resumed rollout keeps the policy's wave widths, a retreat with a failed
# or skipped move stays open until Resume retreats again, and a retreat
# moves quarantined instances too. The manager line's TestReconcile prefix
# runs a reconciler whose journal is fenced: it takes no step.
chaos:
	$(GO) test -race -run 'TestRunE8|TestRunE11|TestRunE13|TestRunE14|TestRunE15' ./internal/harness/
	$(GO) test -race ./internal/testbed/
	$(GO) test -race -run 'TestRecover|TestEvolveDropAdopt|TestConcurrentEvolveDropAdopt|TestCreateInstanceConcurrentDuplicate|TestFleetEvolution|TestProber|TestJournalShipping|TestStandby|TestShipperSync|TestEvolveReplicated|TestRollbackMovesEveryReplica|TestReconcile|TestPolicyRecover|TestSetPolicy|TestSinglePass|TestConcurrentSinglePasses|TestJournalBatch|TestDeclaredMethodContracts|TestInfraMethodContracts' ./internal/manager/
	$(GO) test -race ./internal/replica/
	$(GO) test -race -run 'TestRollout|TestSupervisor' ./internal/supervisor/
	$(GO) test -race -run TestLossyFetchCompletes ./internal/component/
