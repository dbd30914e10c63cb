# Developer entry points. `make ci` is the gate a PR must pass; it mirrors
# the tier-1 verify from ROADMAP.md plus vet and the race detector.

GO ?= go

# Seed allocation baseline for one in-process invoke with observability
# disabled. vet-obs fails if the disabled path ever allocates more than this.
OBS_ALLOC_BASELINE ?= 5

# Head-sampled ceiling: an invoke whose trace the sampler drops (tracing on,
# flight recorder armed, healthy call) may cost at most 2 allocs/op over the
# disabled baseline — at 1% sampling this is 99% of all calls. Measured: 3,
# identical to tracing-off.
UNSAMPLED_ALLOC_BASELINE ?= 7

# Fast-path allocation ceilings (allocs/op), set from the PR-5 transport
# overhaul with a little headroom. vet-wire fails if envelope encode, envelope
# decode, or the fast-path single-call TCP invoke ever regress past them.
WIRE_ENCODE_ALLOC_BASELINE ?= 1
WIRE_DECODE_ALLOC_BASELINE ?= 3
INVOKE_ALLOC_BASELINE ?= 16

# Degree-1 invoke ceiling: a deployment that never constructs a Replica must
# keep the seed invoke alloc budget — replication costs nothing when it is
# off. vet-repl fails if the unreplicated path ever regresses past this.
REPL_ALLOC_BASELINE ?= 5

# Policy-plane invoke ceiling: attaching a (default) DistributionPolicy to a
# binding must not add allocations to the idempotent invoke path — the
# routing decision is a nil check plus one value comparison. Expected 3;
# vet-policy fails past this.
POLICY_ALLOC_BASELINE ?= 5

# Batched-invoke ceiling: one 16-call batch frame must allocate well under
# 16x the single-call budget ($(INVOKE_ALLOC_BASELINE)), i.e. at most
# 4 allocs per sub-call. Measured: 53 allocs per 16-call batch (~3.3/sub).
# vet-batch fails if amortisation ever erodes past this.
BATCH_ALLOC_BASELINE ?= 64

.PHONY: ci vet vet-obs vet-wire vet-repl vet-policy vet-batch build test race bench-smoke bench bench-json experiments fuzz-smoke chaos

ci: vet vet-obs vet-wire vet-repl vet-policy vet-batch build race bench-smoke chaos fuzz-smoke

# go vet, and formatting as a gate: any file gofmt would rewrite fails it.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "vet: gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Zero-cost-when-disabled gate: go vet plus an allocation check proving the
# invoke path with observability off still allocates no more than the seed
# baseline ($(OBS_ALLOC_BASELINE) allocs/op).
vet-obs:
	$(GO) vet ./internal/obs/ ./internal/metrics/ ./internal/rpc/ ./internal/core/
	@out=$$($(GO) test -run xxx -bench 'BenchmarkInvokeTracingOff|BenchmarkInvokeUnsampled' -benchmem -benchtime=10000x . | tee /dev/stderr); \
	gate() { \
		allocs=$$(echo "$$out" | awk -v pat="$$1" '$$0 ~ pat {for (i=1; i<=NF; i++) if ($$(i+1) == "allocs/op") print $$i; exit}'); \
		if [ -z "$$allocs" ]; then echo "vet-obs: could not parse allocs/op for $$1"; exit 1; fi; \
		if [ "$$allocs" -gt "$$2" ]; then \
			echo "vet-obs: $$1 invoke allocates $$allocs allocs/op, budget $$2"; exit 1; \
		fi; \
		echo "vet-obs: $$1 invoke at $$allocs allocs/op (budget $$2)"; \
	}; \
	gate 'BenchmarkInvokeTracingOff' $(OBS_ALLOC_BASELINE) && \
	gate 'BenchmarkInvokeUnsampled' $(UNSAMPLED_ALLOC_BASELINE)

# Transport fast-path alloc gate (mirrors vet-obs): envelope encode/decode
# and the fast-path TCP invoke must stay at or below their recorded
# allocs/op ceilings, so pooling and coalescing wins cannot silently erode.
vet-wire:
	$(GO) vet ./internal/wire/ ./internal/transport/
	@out=$$($(GO) test -run xxx -bench 'BenchmarkAblation_WireEnvelope|BenchmarkE10_TransportFastPath/fast/sequential' -benchmem -benchtime=2000x . | tee /dev/stderr); \
	gate() { \
		allocs=$$(echo "$$out" | awk -v pat="$$1" '$$0 ~ pat {for (i=1; i<=NF; i++) if ($$(i+1) == "allocs/op") print $$i; exit}'); \
		if [ -z "$$allocs" ]; then echo "vet-wire: could not parse allocs/op for $$1"; exit 1; fi; \
		if [ "$$allocs" -gt "$$2" ]; then \
			echo "vet-wire: $$1 allocates $$allocs allocs/op, budget $$2"; exit 1; \
		fi; \
		echo "vet-wire: $$1 at $$allocs allocs/op (budget $$2)"; \
	}; \
	gate 'WireEnvelope/encode' $(WIRE_ENCODE_ALLOC_BASELINE) && \
	gate 'WireEnvelope/decode' $(WIRE_DECODE_ALLOC_BASELINE) && \
	gate 'TransportFastPath/fast/sequential' $(INVOKE_ALLOC_BASELINE)

# Replication-off gate (mirrors vet-obs): the degree-1 invoke path must stay
# at the seed alloc baseline, because unreplicated deployments never touch
# internal/replica. The degree-3 read path is benchmarked alongside for the
# delta but not gated — its budget is E13's business.
vet-repl:
	$(GO) vet ./internal/replica/ ./internal/naming/
	@out=$$($(GO) test -run xxx -bench 'BenchmarkInvokeUnreplicated' -benchmem -benchtime=10000x . | tee /dev/stderr); \
	gate() { \
		allocs=$$(echo "$$out" | awk -v pat="$$1" '$$0 ~ pat {for (i=1; i<=NF; i++) if ($$(i+1) == "allocs/op") print $$i; exit}'); \
		if [ -z "$$allocs" ]; then echo "vet-repl: could not parse allocs/op for $$1"; exit 1; fi; \
		if [ "$$allocs" -gt "$$2" ]; then \
			echo "vet-repl: $$1 allocates $$allocs allocs/op, budget $$2"; exit 1; \
		fi; \
		echo "vet-repl: $$1 at $$allocs allocs/op (budget $$2)"; \
	}; \
	gate 'BenchmarkInvokeUnreplicated' $(REPL_ALLOC_BASELINE)

# Distribution-policy gate (mirrors vet-repl): a binding carrying the
# default policy document must invoke at the unreplicated alloc budget —
# read routing only costs when backup-ok is actually in force.
vet-policy:
	$(GO) vet ./internal/policy/ ./internal/manager/
	@out=$$($(GO) test -run xxx -bench 'BenchmarkInvokeDefaultPolicy' -benchmem -benchtime=10000x . | tee /dev/stderr); \
	gate() { \
		allocs=$$(echo "$$out" | awk -v pat="$$1" '$$0 ~ pat {for (i=1; i<=NF; i++) if ($$(i+1) == "allocs/op") print $$i; exit}'); \
		if [ -z "$$allocs" ]; then echo "vet-policy: could not parse allocs/op for $$1"; exit 1; fi; \
		if [ "$$allocs" -gt "$$2" ]; then \
			echo "vet-policy: $$1 allocates $$allocs allocs/op, budget $$2"; exit 1; \
		fi; \
		echo "vet-policy: $$1 at $$allocs allocs/op (budget $$2)"; \
	}; \
	gate 'BenchmarkInvokeDefaultPolicy' $(POLICY_ALLOC_BASELINE)

# Scatter-gather gate (mirrors vet-wire): a 16-call batch over loopback TCP
# must keep its per-frame alloc amortisation — one frame for 16 sub-calls
# cannot cost more than $(BATCH_ALLOC_BASELINE) allocs (4 per sub-call vs
# $(INVOKE_ALLOC_BASELINE) for a single call).
vet-batch:
	$(GO) vet ./internal/rpc/
	@out=$$($(GO) test -run xxx -bench 'BenchmarkInvokeBatch/16' -benchmem -benchtime=2000x . | tee /dev/stderr); \
	gate() { \
		allocs=$$(echo "$$out" | awk -v pat="$$1" '$$0 ~ pat {for (i=1; i<=NF; i++) if ($$(i+1) == "allocs/op") print $$i; exit}'); \
		if [ -z "$$allocs" ]; then echo "vet-batch: could not parse allocs/op for $$1"; exit 1; fi; \
		if [ "$$allocs" -gt "$$2" ]; then \
			echo "vet-batch: $$1 allocates $$allocs allocs/op, budget $$2"; exit 1; \
		fi; \
		echo "vet-batch: $$1 at $$allocs allocs/op (budget $$2)"; \
	}; \
	gate 'InvokeBatch/16' $(BATCH_ALLOC_BASELINE)

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
# transactional swaps), whose value is the schedules the detector sees.
race:
	$(GO) test -race -short -shuffle=on ./...
	$(GO) test -race -count=5 -run 'TestApplyNeverExposesAnIntermediateTable|TestCallersNeverSeeInsideATransaction' ./internal/core/ ./internal/dfm/

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

# Full experiment sweep with machine-readable export: the unit of the
# BENCH_*.json perf trajectory (bump BENCH_JSON per PR).
BENCH_JSON ?= BENCH_10.json

bench-json:
	$(GO) run ./cmd/dcdo-bench -json $(BENCH_JSON)

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
