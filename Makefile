# GreFar build targets. The module is stdlib-only; everything here is plain
# go tooling.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test tier1 vet race bench bench-slot bench-json bench-compare hollow-bench fuzz golden check clean

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# tier1 is the merge gate. What each command protects, in order:
#   build: the tree compiles
#   vet: no suspicious constructs
#   race ./...: no data race anywhere
#   runner: sweeps independent of scheduling
#   serve: tick and checkpoint locking; kill/restart in process and on agents
#   agent..hollow: wire reuse, batch contract, parked workers, degrade,
#     restore rewind; hollow's kill, mask, resync, rejoin at 48 and at 1000
#     agents (TestFleetKillReviveRejoins, TestThousandAgentsWithMidRunKill)
#   core: decisions replay the dense layout's pins; greedy edges; warm repair
#   invariant: decisions replay the dense goldens; aux runs checked
#   queue, sim: rejected input leaves no trace
#   budgets: decide, step, wire, tick allocations
#   FuzzSimplex: hostile LPs
#   FuzzApply: hostile actions
#   FuzzWarmRepair: hostile warm starts
#   FuzzGreedyExchange: greedy exchange optimality
#   FuzzSparseRefresh: incremental refresh exactness
#   FuzzRestoreSnapshot: hostile serve checkpoints
#   FuzzDecode: hostile snapshot files
#   FuzzServerFrame: hostile wire frames
#   FuzzCodec: hostile message bodies
tier1:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/runner
	$(GO) test -race -count=1 ./internal/serve/... ./cmd/grefar-serve
	$(GO) test -race -count=1 ./internal/agent ./internal/controller ./internal/controlplane ./internal/transport/... ./internal/experiments ./internal/hollow
	$(GO) test -race -count=1 -run 'TestSparse|TestAuto|TestDecomposed|TestSchedulerState|TestRestoreRejects|TestRepairWarmStartOutcomes|TestGreedy|TestDecideLeavesNoStaleCells' ./internal/core
	$(GO) test -race -count=1 -run 'TestAutoSolverBitIdentical|TestCheckerCleanOnAuxCluster' ./internal/invariant
	$(GO) test -race -count=1 -run 'TestRejectedApply|TestRejectedStep|TestSnapshotsOwn|TestViewTracksTheSet|TestEngineSnapshotReuse|TestEngineDetailOwnsFlows|FuzzApply' ./internal/queue ./internal/sim
	$(GO) test -count=1 -run 'TestDecideAllocationBudget|TestEngineStepAllocationBudget|TestWireAllocationBudget' .
	$(GO) test -run '^$$' -fuzz FuzzSimplex -fuzztime $(FUZZTIME) ./internal/lp
	$(GO) test -run '^$$' -fuzz FuzzApply -fuzztime $(FUZZTIME) ./internal/queue
	$(GO) test -run '^$$' -fuzz FuzzWarmRepair -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzGreedyExchange -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSparseRefresh -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRestoreSnapshot -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/serve/snapshot
	$(GO) test -run '^$$' -fuzz FuzzServerFrame -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzCodec -fuzztime $(FUZZTIME) ./internal/transport

# fuzz runs the native fuzz targets for FUZZTIME each (default 10s); raise it
# for a deeper soak, e.g. make fuzz FUZZTIME=5m.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSimplex -fuzztime $(FUZZTIME) ./internal/lp
	$(GO) test -run '^$$' -fuzz FuzzApply -fuzztime $(FUZZTIME) ./internal/queue
	$(GO) test -run '^$$' -fuzz FuzzWarmRepair -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzGreedyExchange -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSparseRefresh -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRestoreSnapshot -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/serve/snapshot
	$(GO) test -run '^$$' -fuzz FuzzServerFrame -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzCodec -fuzztime $(FUZZTIME) ./internal/transport

# golden regenerates the committed golden traces — the healthy ones under
# internal/invariant/testdata/golden and the degraded-mode chaos trace under
# internal/controller/testdata — after an intentional behavior change.
# Inspect the diff before committing: every changed line is a behavior change.
golden:
	$(GO) test ./internal/invariant -run TestGoldenTraces -update
	$(GO) test ./internal/controller -run TestGoldenChaosTrace -update

# check replays the paper's reference experiment with the invariant checker
# attached: queue dynamics (12)-(13), action feasibility, job conservation,
# and the drift-plus-penalty objective are re-verified every slot.
check: build
	$(GO) run ./cmd/grefar-sim -experiment table1 -check

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-slot guards the hot path: it runs the per-slot Decide benchmark and
# the whole-slot engine benchmark with allocation reporting, then enforces the
# allocs/op ceilings recorded in testdata/bench_slot_baseline.txt via
# TestDecideAllocationBudget and TestEngineStepAllocationBudget. The tests
# fail if allocs/op regresses above the baseline; after an intentional
# change, measure with the benchmark and edit the baseline file.
bench-slot:
	$(GO) test -run '^$$' -bench 'BenchmarkSlotDecision|BenchmarkEngineStep' -benchmem .
	$(GO) test -count=1 -run 'TestDecideAllocationBudget|TestEngineStepAllocationBudget' -v .

# SLOT_BENCHES is the set recorded in BENCH_slot.json: the per-slot solver
# cost on the reference cluster (the linear beta=0 slot and the warm-started
# away-step beta=100 one) plus the large-instance N=200/J=100 decision at
# ~10% active-pair density and one whole
# default-configured engine slot at the same shape, and the routing half of a
# decision alone at 20 and at 500 candidate sites per job type (it lives in
# internal/core, hence the second package on those lines). DIST_BENCHES is
# the set recorded in BENCH_distributed.json: the 3-agent controller round
# (one mux conn per agent), the hollow-fleet sweep at 100/500/1000/2000
# agents, and the wire codec alone (state report and allocation, encode and decode). benchjson
# records the box under "_env" in both files, and bench-compare refuses a run
# taken at another GOMAXPROCS.
SLOT_BENCHES = BenchmarkSlotDecision$$|BenchmarkEngineStep$$|BenchmarkDecideRouting$$
DIST_BENCHES = BenchmarkDistributedSlot$$|BenchmarkHollowSlot/|BenchmarkCodec/
BENCHCOUNT ?= 3

# bench-json refreshes the committed baselines BENCH_slot.json and
# BENCH_distributed.json. Run it after an intentional performance change and
# commit the diff.
bench-json:
	$(GO) test -run '^$$' -bench '$(SLOT_BENCHES)' -benchmem -count=$(BENCHCOUNT) . ./internal/core \
		| $(GO) run ./cmd/benchjson -out BENCH_slot.json
	$(GO) test -run '^$$' -bench '$(DIST_BENCHES)' -benchmem -count=$(BENCHCOUNT) . \
		| $(GO) run ./cmd/benchjson -out BENCH_distributed.json

# bench-compare re-runs the same benchmarks and fails on >15% ns/op or
# allocs/op regressions (allocs/op must also rise by more than one, the
# rounding of go test's integer per-op count): the beta=100 slot decision
# and the N=200/J=100 large-instance decision and engine step against BENCH_slot.json
# (the benchjson default guard covers all three families), and the
# distributed slot ticks (one mux conn per agent and every hollow fleet size)
# against BENCH_distributed.json; other benchmarks warn — including the
# ~60 ns BenchmarkCodec cells, whose allocation side is held by
# TestWireAllocationBudget instead.
bench-compare:
	$(GO) test -run '^$$' -bench '$(SLOT_BENCHES)' -benchmem -count=$(BENCHCOUNT) . ./internal/core \
		| $(GO) run ./cmd/benchjson -compare BENCH_slot.json -max-regress 0.15
	$(GO) test -run '^$$' -bench '$(DIST_BENCHES)' -benchmem -count=$(BENCHCOUNT) . \
		| $(GO) run ./cmd/benchjson -compare BENCH_distributed.json \
			-guard '^BenchmarkDistributedSlot$$|^BenchmarkHollowSlot' -max-regress 0.15

# hollow-bench runs the hollow-fleet scale sweep locally — fault-free and
# chaos variants at each fleet size — and prints the measurement table
# (slot-tick latency percentiles, throughput, allocs/slot, heap ceiling).
hollow-bench: build
	$(GO) run ./cmd/grefar-sim -experiment scale

clean:
	$(GO) clean ./...
