GO ?= go

.PHONY: build build-arm64 vet loc knobs lint lint-json lint-selftest test race ff-stress serve-stress chaos cluster diag fuzz bench-json bench-gate bench-serve bench-compare figures-cmp verify

build:
	$(GO) build ./...

# build-arm64 builds the tree, and vets internal/sha1x, internal/mandel and
# internal/rabin, for an architecture without their assembly (sha1x's SHA-NI
# loop, mandel's AVX and AVX-512 row kernels, rabin's GFNI candidate scan).
# Each package's amd64 files define functions the portable code calls;
# without their !amd64 fallbacks (sha1x_other.go, row_other.go,
# rabin_other.go, the last running rabin's Go chains) every non-amd64 build
# fails with "undefined: sum", "p.block undefined" or "undefined: hasGFNI",
# which no amd64 build or test shows.
build-arm64:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/sha1x ./internal/mandel ./internal/rabin

vet:
	$(GO) vet ./...

# loc prints the line-budget figure ROADMAP item 6 tracks: non-test Go and
# Go assembly (*.s), testdata excluded.
loc:
	@find . \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) ! -path '*/testdata/*' | xargs cat | wc -l

# knobs prints each command's flag count (the "  -name" lines of its -h
# output): the operator-facing surface ROADMAP item 6 tracks beside loc.
knobs:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./cmd/...; \
	for b in "$$tmp"/*; do \
		printf '%-13s %s\n' "$$(basename "$$b")" "$$("$$b" -h 2>&1 | grep -c '^  -' || true)"; \
	done

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

# lint-selftest runs the analysis engine tests (call graph, summary table,
# dataflow solver, suppression driver) and every analyzer's fixtures under
# the race detector: the shared loader and the per-Program caches (call
# graph, CFGs, summary tables) are mutable state the analyzer tests share.
lint-selftest:
	$(GO) test -race -count=1 ./internal/analysis/...

test:
	$(GO) test ./...

# Full-tree race coverage: the goroutine runtimes (ff, core, tbb, dedup) are
# the packages that matter most, but everything runs under the detector so
# new concurrency never lands unchecked.
race:
	$(GO) test -race ./...

# ff-stress repeats the stream runtimes' tests under the race detector. A
# lost wake-up in the queues' park/wake protocol is a hang that one run in
# many hits, so the repetition, not the single pass in `race`, is the check.
# The tbb scheduler repeats here too: a completion its group saw before the
# scheduler's pending count did failed one run in about thirty, which a
# single pass rarely shows.
ff-stress:
	$(GO) test -race -count=50 ./internal/ff/ ./internal/core/ ./internal/tbb/

# serve-stress repeats the serving layer's drain tests under the race
# detector: graceful and forced Shutdown, the soak, the observe-before-result
# ordering and ServeConn racing a drain. A session that slips past a drain,
# or work a stopped pipeline source leaves queued, shows only under
# repetition. The three reject tests hold a request staged only because its
# successor arrived in the same write, so they repeat here too. The
# scheduler's own tests (TestSched) repeat Close, Drop and the blocking Next:
# a lost wake-up of the FIFO's cond is a hang, like the ff queues' in
# ff-stress.
serve-stress:
	$(GO) test -race -count=20 -run 'Shutdown|Soak|ResultFollowsObserve|ServeConn|TestAdmissionReject$$|TestDeadlineReject|TestOverloadRejectReason|TestSched' ./internal/server/ ./internal/server/qos/

# chaos runs the overload/failure-injection scenarios (internal/testutil/chaos)
# under the race detector at full depth: hog-vs-small tenant isolation SLOs,
# mid-stream device quarantine and re-admission, and abrupt connection drops,
# all with archive verification and goroutine-leak checks. CI runs the same
# package with -short; run this target before touching admission, QoS, or
# health code.
chaos:
	$(GO) test -race -count=1 ./internal/testutil/chaos

# cluster runs the 3-node in-process smoke under the race detector: sharded
# routing by redirect, cluster-wide dedup through two nodes, the store's
# exactly-one-first-sighting tests (concurrent sighters on three stores,
# fail-open, one Query per hash per batch), and the failover scenario that
# kills a node mid-stream via internal/fault and requires every session to
# complete on the survivors with byte-verified archives and leak-clean
# teardown (internal/cluster, DESIGN.md §14).
cluster:
	$(GO) test -race -count=1 -run 'TestCluster|TestRedirect|TestLoadgen|TestNodeFault|TestStore' ./internal/cluster

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
# restore path, the cluster store's TStore peer handler and the -fleet spec
# parser are the surfaces that parse bytes off the network/disk/command
# line, so they must error — never panic or over-allocate — on arbitrary
# input (FuzzStoreRPC also holds the handler to its reply layout and its
# reservation: a hash queried twice reads "known" the second time). FuzzCompressEquivalence is the odd one
# out: it searches for a block on which the fused host encoder and the
# all-positions reference disagree (seeded in code from the equivalence
# table's edge shapes); FuzzFillEquivalence searches for a batch on which the
# GPU path's warp-exact match fill misses a token start or a warp's cost
# (seeded in code from its exactness table); FuzzBoundariesEquivalence does
# the same for the Rabin chunker's candidate scans (the Go chains and, where
# CPUID reports it, the GFNI kernel) against the sequential rolling window,
# boundaries and candidate bitmaps both, and FuzzSum20Equivalence for the SHA-1 the host
# selects (SHA-NI where CPUID reports it) against crypto/sha1, and
# FuzzRowMatchesPixel for the Mandelbrot row kernels (every width the CPU
# has: scalar, AVX, AVX-512) against the scalar Pixel loop, over arbitrary
# float64 windows. The two lzss targets cap minimization at 100 runs per
# input: at Go's default of 60 s, minimizing each new input spent the whole
# budget and left nothing for the search.
# FUZZTIME=5m for a longer local soak.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/server/wire -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server/wire -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dedup -fuzz FuzzRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -fuzz FuzzStoreRPC -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gpu -fuzz FuzzParseFleet -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lzss -fuzz FuzzCompressEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/lzss -fuzz FuzzFillEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/rabin -fuzz FuzzBoundariesEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sha1x -fuzz FuzzSum20Equivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mandel -fuzz FuzzRowMatchesPixel -fuzztime $(FUZZTIME)

# bench-json emits the Fig. 1 table as machine-readable JSONL (one row per
# optimization step, including the utilization columns) into BENCH_fig1.json.
# -niter 200 keeps Fig. 1 a short slice, not a publication-grade run.
bench-json:
	$(GO) run ./cmd/figures -fig 1 -json -niter 200 > BENCH_fig1.json

# bench-gate is the host suite's regression gate (cmd/benchcompare -workload
# host): it builds cmd/benchhost at BASE and from the working tree, runs the
# two alternately PAIRS times (20 here) under the caller's GOMAXPROCS, and
# exits 1 when a row's median throughput is more than 8% below the parent's,
# or its median allocs/op is above it at all, and the change lost at least 4
# pairs in 5 (see DESIGN.md §10). JSON on stdout, table on stderr. A pair is
# two ~7 s runs, so twenty pairs take about 5 minutes.
# The committed ledger BENCH_host.json is one such report at GOMAXPROCS=1;
# re-record it with `GOMAXPROCS=1 make bench-gate BASE=<parent> > cmp.json &&
# mv cmp.json BENCH_host.json`.
bench-gate: PAIRS = 20
bench-gate:
	@$(GO) run ./cmd/benchcompare -base $(BASE) -workload host -pairs $(PAIRS)

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
# and failed counts as JSON on stdout, with a readable table on stderr. It
# exits 1 when a metric's median is worse than the parent's by more than its
# BENCHMARK.json bound and the change lost at least 4 pairs in 5. A pair is
# two ~13 s runs, so ten pairs of one workload take about 5 minutes.
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
verify: build build-arm64 vet lint test race chaos diag
