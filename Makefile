# NetCL build and test entry points.
#
# tier1 is the fast correctness gate (vet + build + test); tier2 and
# race run the race detector over the concurrent code (sharded engine,
# UDP backend, drivers, chaos tests); bench emits the interpreter
# hot-path measurement, bench-reliability the goodput-under-loss one,
# bench-loadgen the shard-count sweep of the flow-parallel data plane,
# bench-host the window sweep of the pipelined host channel plus the
# send-path allocation check, bench-ctrl the transactional control
# plane (batched vs single-op CRUD, plus data-path p99 under a
# control-plane storm), bench-fabric the hierarchical-aggregation
# sweep over multi-tier fabrics (goodput and top-tier ingress bytes at
# 1/2/3 tiers, partition-invariance pinned), bench-churn the four
# production-churn timelines (crash/failover, re-election, hot-key
# churn, rolling reconfig) scored against SLOs. fuzz-smoke runs the
# three native fuzz targets (netsim's event-queue differential,
# runtime's Pack/Unpack round trip and its UDP_GRO control-message
# parser) for 20 s each from their checked-in corpora
# (testdata/fuzz); a failing input is written there. bench-e2e is the
# repository's benchmark (BENCHMARK.json, bench/README.md): every
# workload, every end-to-end metric; bench-pair is the paired
# comparison a performance claim rests on — the working tree against
# OLD over N alternating pairs of workload W (tools/benchpair).

GO ?= go

.PHONY: all tier1 tier2 race fuzz-smoke bench bench-e2e bench-pair bench-reliability bench-loadgen bench-host bench-ctrl bench-netsim bench-netsim-smoke bench-fabric bench-fabric-smoke bench-churn bench-churn-smoke examples clean

all: tier1

tier1:
	$(GO) vet ./... && $(GO) build ./... && $(GO) test ./...

tier2: race

race:
	$(GO) vet ./... && $(GO) test -race ./...

# A short -fuzzminimizetime keeps the 20 s on new inputs: by default
# the fuzzer may spend a minute shrinking each one that adds coverage.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test ./internal/netsim -run '^$$' -fuzz '^FuzzEventQueueOrder$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/runtime -run '^$$' -fuzz '^FuzzPackUnpackRoundTrip$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/runtime -run '^$$' -fuzz '^FuzzGROControl$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

bench:
	$(GO) test -run TestCompiledBurstAllocs -v ./internal/bmv2
	$(GO) test -run xxx -bench BenchmarkInterpHotPath -benchmem .
	$(GO) run ./cmd/nclbench -interp -out BENCH_interp.json

bench-e2e:
	bash bench/run.sh

OLD ?= HEAD
W ?=
N ?= 10
bench-pair:
	$(GO) run ./tools/benchpair -old $(OLD) -w "$(W)" -n $(N)

bench-reliability:
	$(GO) run ./cmd/nclbench -reliability -out BENCH_reliability.json

bench-loadgen:
	$(GO) run ./cmd/nclbench -loadgen -out BENCH_loadgen.json

bench-host:
	$(GO) test -run xxx -bench BenchmarkHostSendPath -benchmem .
	$(GO) run ./cmd/nclbench -hostpath -out BENCH_hostpath.json

bench-ctrl:
	$(GO) run ./cmd/nclbench -ctrl -out BENCH_ctrl.json

bench-netsim:
	$(GO) run ./cmd/nclbench -netsim -out BENCH_netsim.json

bench-netsim-smoke:
	$(GO) run ./cmd/nclbench -netsim -smoke -out BENCH_netsim_smoke.json

bench-fabric:
	$(GO) run ./cmd/nclbench -fabric -out BENCH_fabric.json

bench-fabric-smoke:
	$(GO) run ./cmd/nclbench -fabric -smoke -out BENCH_fabric_smoke.json

bench-churn:
	$(GO) run ./cmd/nclbench -churn -out BENCH_churn.json

bench-churn-smoke:
	$(GO) run ./cmd/nclbench -churn -smoke -out BENCH_churn_smoke.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/allreduce
	$(GO) run ./examples/kvcache
	$(GO) run ./examples/paxos

# clean removes what the targets above leave behind and git does not
# track: the smoke outputs, the reliability table and the benchmark's
# build directory. The other BENCH_*.json files are committed.
clean:
	rm -f BENCH_reliability.json BENCH_netsim_smoke.json BENCH_fabric_smoke.json BENCH_churn_smoke.json
	rm -rf .bench_build
