GO ?= go

.PHONY: build vet lint lint-json lint-selftest test race chaos cluster diag fuzz bench-json bench-gate bench-serve bench-compare figures-cmp verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs streamvet, the repository's own analyzer suite (cmd/streamvet):
# the pipeline and GPU API contracts as machine checks, over all packages
# including test files.
lint:
	$(GO) run ./cmd/streamvet ./...

# lint-json emits every diagnostic — including suppressed ones, with their
# mandatory //streamvet:ignore reasons — as machine-readable JSON. CI
# uploads the file as an artifact so the suppression inventory is reviewable
# per commit.
lint-json:
	$(GO) run ./cmd/streamvet -json ./... > STREAMVET.json

# lint-selftest runs the analysis engine tests (call graph, dataflow solver,
# suppression driver) and every analyzer's flagged/clean fixtures under the
# race detector: the shared loader, fact store, and per-Program caches are
# mutable state that analyzer tests exercise concurrently.
lint-selftest:
	$(GO) test -race -count=1 ./internal/analysis/...

test:
	$(GO) test ./...

# Full-tree race coverage: the goroutine runtimes (ff, core, tbb, dedup) are
# the packages that matter most, but everything runs under the detector so
# new concurrency never lands unchecked.
race:
	$(GO) test -race ./...

# chaos runs the overload/failure-injection scenarios (internal/testutil/chaos)
# under the race detector at full depth: hog-vs-small tenant isolation SLOs,
# mid-stream device quarantine and re-admission, and abrupt connection drops,
# all with archive verification and goroutine-leak checks. CI runs the same
# package with -short; run this target before touching admission, QoS, or
# health code.
chaos:
	$(GO) test -race -count=1 ./internal/testutil/chaos

# cluster runs the 3-node in-process smoke under the race detector: sharded
# routing (redirect and forward), cluster-wide dedup through two nodes, and
# the failover scenario that kills a node mid-stream via internal/fault and
# requires every session to complete on the survivors with byte-verified
# archives and leak-clean teardown (internal/cluster, DESIGN.md §14).
cluster:
	$(GO) test -race -count=1 -run 'TestCluster|TestRedirect|TestLoadgen|TestNodeFault' ./internal/cluster

# diag is the fleet-diagnostics smoke: the probe suite (quick level) must
# pass on a 3-device heterogeneous fleet under the race detector, the
# streamdiag binary must exit 0 on the same fleet, and its -json output must
# pass its own schema gate (-validate). Run it before touching internal/diag,
# internal/gpu fleet code, or the health scoreboard.
diag:
	$(GO) test -race -count=1 ./internal/diag ./internal/gpu ./internal/health
	$(GO) run ./cmd/streamdiag -fleet 'titanxp,titanxp@clock=0.7@gen=2,titanxp@sms=20' -r 1 -json > DIAG_smoke.json
	$(GO) run ./cmd/streamdiag -validate DIAG_smoke.json

# fuzz gives each fuzz target a short randomized run on top of the committed
# seed corpora (testdata/fuzz): the wire codec's decoders, the archive
# restore path, and the -fleet spec parser are the surfaces that parse bytes
# off the network/disk/command line, so they must error — never panic or
# over-allocate — on arbitrary input. FuzzCompressEquivalence is the odd one
# out: it searches for a block on which the fused host encoder and the
# all-positions reference disagree (seeded in code from the equivalence
# table's edge shapes); FuzzBoundariesEquivalence does the same for the Rabin
# chunker's interleaved candidate scan against the sequential rolling window.
# FUZZTIME=5m for a longer local soak.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/server/wire -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server/wire -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dedup -fuzz FuzzRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gpu -fuzz FuzzParseFleet -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lzss -fuzz FuzzCompressEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rabin -fuzz FuzzBoundariesEquivalence -fuzztime $(FUZZTIME)

# bench-json emits the Fig. 1 table as machine-readable JSONL (one row per
# optimization step, including the utilization columns) into BENCH_fig1.json,
# and the host-throughput suite (real wall clock + allocs/op, cmd/benchhost)
# into BENCH_host.json. -niter 200 keeps Fig. 1 a short slice, not a
# publication-grade run.
bench-json:
	$(GO) run ./cmd/figures -fig 1 -json -niter 200 > BENCH_fig1.json
	$(GO) run ./cmd/benchhost > BENCH_host.json

# bench-gate compares a fresh host-suite run against the committed
# BENCH_baseline.json and fails on regression: a throughput drop of more
# than 15% after calibration scaling, or any allocs/op increase beyond 0.25
# on an entry the baseline pins (see DESIGN.md §10).
bench-gate:
	$(GO) run ./cmd/benchhost > BENCH_host.json
	$(GO) run ./cmd/benchdiff -base BENCH_baseline.json -new BENCH_host.json

# bench-serve runs one workload of the served-path benchmark (benchmark/,
# BENCHMARK.json) exactly as the driver does; see benchmark/README.md for the
# workloads and metrics. TRACE=1 prints the per-layer table instead.
WORKLOAD ?= serve_batch_unique
SEED ?= 1
TRACE ?= 0
bench-serve:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 10 --trace $(TRACE)

# figures-cmp makes "virtual time did not move" a command: it builds
# cmd/figures from BASE (a `git archive` of that revision, unpacked in a
# temporary directory that is removed afterwards) and from the working tree,
# runs both over every figure — Fig. 1/4/5 and the Fig. 7 fleet table — at a
# reduced size, and `cmp`s the two outputs byte for byte. Virtual-time tables
# are a pure function of the code, so any difference is a change to the
# simulator's timing, its cost models, or placement. FIGURES_FLAGS= (empty)
# compares the full default-size figures instead.
BASE ?= HEAD
FIGURES_FLAGS ?= -niter 100 -dedup-scale 0.004
figures-cmp:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/figures.base" ./cmd/figures); \
	$(GO) build -o "$$tmp/figures.tree" ./cmd/figures; \
	"$$tmp/figures.base" -fig all $(FIGURES_FLAGS) > "$$tmp/base.txt" 2>/dev/null; \
	"$$tmp/figures.tree" -fig all $(FIGURES_FLAGS) > "$$tmp/tree.txt" 2>/dev/null; \
	grep -q 'Fig. 7' "$$tmp/tree.txt" || { echo "figures-cmp: no Fig. 7 table in the output"; exit 1; }; \
	cmp "$$tmp/base.txt" "$$tmp/tree.txt" || { diff "$$tmp/base.txt" "$$tmp/tree.txt" | head -20; exit 1; }; \
	echo "figures-cmp: $$(wc -l < "$$tmp/tree.txt") lines of figures identical to $(BASE)"

# bench-compare makes the benchmark's claim method a command
# (cmd/benchcompare): it builds benchmark/ at BASE (a `git archive`, as
# figures-cmp does) and from the working tree, runs the two alternately on
# seeds 1..PAIRS of each WORKLOAD (comma-separated, or all), and prints the
# per-metric medians, quartiles, pairs won, per-seed compress_ratio equality
# and failed counts as JSON on stdout, with a readable table on stderr. A
# pair is two ~13 s runs, so ten pairs of one workload take about 5 minutes.
# The committed ledger BENCH_serve.json is all six workloads; re-record it
# with `make bench-compare BASE=<rev> WORKLOAD=all > cmp.json && mv cmp.json
# BENCH_serve.json`, so a failed run leaves it as it was.
PAIRS ?= 10
bench-compare:
	@$(GO) run ./cmd/benchcompare -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS)

# verify mirrors the test and lint jobs of .github/workflows/ci.yml. The
# bench-gate job is separate on purpose: benchmark numbers want a quiet
# machine, so run `make bench-gate` deliberately, not as part of every
# verify.
verify: build vet lint test race chaos diag
