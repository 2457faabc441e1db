# NetCL build and test entry points.
#
# tier1 is the fast correctness gate (gofmt + vet + build + test, then
# the pinned per-packet instruction counts, TestInstrsPerPacket, in the
# bmv2count build that counts them);
# tier2 and race run the race detector over the concurrent code
# (UDP backend, partitioned simulator, drivers, chaos tests). fuzz-smoke runs
# the nine native fuzz targets (netsim's event-queue differential and
# its route planner on random fabrics against a hop-by-hop walk oracle,
# runtime's pack/unpack round trip and its raw-bytes UnpackInto, both
# against the byte-at-a-time oracle, and its
# UDP_GRO control-message parser, bmv2's write batches against a naive
# table model and its parser/deparser on random header layouts against
# the reference interpreter, p4rt's frame decoders on raw bytes, the P4 text parser
# with Validate, Print and p4c.Fit on what it accepts, and on what Validate accepts
# a Print-Parse-Validate round trip and bmv2.New) for 20 s each from their checked-in corpora
# (testdata/fuzz); a failing input is written there. bench-e2e
# is the repository's benchmark (BENCHMARK.json, bench/README.md):
# every workload, every end-to-end metric; bench-smoke is the same
# with one-second runs — every
# workload and every benchmark-owned oracle, non-zero exit if one
# fails (the CI job) — then every in-tree Go benchmark once
# (-benchtime 1x), so that none of them rots unrun; bench-pair is the paired comparison a
# performance claim rests on — the working tree against OLD over N
# alternating pairs of workload W (tools/benchpair). examples runs the
# four programs under examples/, the ncc compiler CLI on calc.ncl for
# both targets, the nclsim workload CLI on each simulated app plus one
# lossy UDP run, and nclbench (the paper's tables); any non-zero exit
# fails it. experiments rewrites
# EXPERIMENTS.md's generated tables from the code (TestExperimentsGolden
# -update); on a clean checkout it leaves git diff empty, and tier1
# fails whenever it would not.

GO ?= go

.PHONY: all tier1 tier2 race fuzz-smoke bench-e2e bench-smoke bench-pair examples experiments clean

all: tier1

# gofmt -l exits 0 whatever it finds: the gate is its output being empty.
tier1:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l . is not empty:"; echo "$$out"; exit 1; fi
	$(GO) vet ./... && $(GO) build ./... && $(GO) test ./...
	$(GO) test -tags bmv2count ./internal/apps -run '^TestInstrsPerPacket$$'

tier2: race

race:
	$(GO) vet ./... && $(GO) test -race ./...

# A short -fuzzminimizetime keeps the 20 s on new inputs: by default
# the fuzzer may spend a minute shrinking each one that adds coverage.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test ./internal/netsim -run '^$$' -fuzz '^FuzzEventQueueOrder$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/netsim -run '^$$' -fuzz '^FuzzRoutes$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/runtime -run '^$$' -fuzz '^FuzzPackUnpackRoundTrip$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/runtime -run '^$$' -fuzz '^FuzzUnpackIntoRaw$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/runtime -run '^$$' -fuzz '^FuzzGROControl$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/bmv2 -run '^$$' -fuzz '^FuzzWriteBatch$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/bmv2 -run '^$$' -fuzz '^FuzzLayout$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/p4rt -run '^$$' -fuzz '^FuzzP4RTFrame$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/p4 -run '^$$' -fuzz '^FuzzP4Parse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

bench-e2e:
	bash bench/run.sh

bench-smoke:
	bash bench/run.sh -seconds 1
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

OLD ?= HEAD
W ?=
N ?= 10
bench-pair:
	$(GO) run ./tools/benchpair -old $(OLD) -w "$(W)" -n $(N)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/allreduce
	$(GO) run ./examples/kvcache
	$(GO) run ./examples/paxos
	$(GO) run ./cmd/ncc -print examples/src/calc.ncl
	$(GO) run ./cmd/ncc -print -target v1model examples/src/calc.ncl
	$(GO) run ./cmd/nclsim -app agg
	$(GO) run ./cmd/nclsim -app cache
	$(GO) run ./cmd/nclsim -app paxos
	$(GO) run ./cmd/nclsim -app agg -backend udp -loss 0.05 -seed 17
	$(GO) run ./cmd/nclbench

experiments:
	$(GO) test . -run '^TestExperimentsGolden$$' -update

# clean removes the benchmark's build directory, the one thing the
# targets above leave behind that git does not track.
clean:
	rm -rf .bench_build
