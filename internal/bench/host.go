package bench

// Host-throughput suite: unlike the Fig. 1/4/5 experiments, which run in
// virtual time on the simulated device, these measurements time the *real*
// host-side hot paths — the Dedup pipeline stages, Mandelbrot row
// computation, and the ff.SPSC queue — and count heap allocations per
// operation. cmd/benchhost emits the report as JSON; cmd/benchdiff compares
// a fresh run against the committed BENCH_baseline.json and fails the build
// on throughput or allocation regressions (see DESIGN.md §10).

import (
	"io"
	"runtime"
	"sync"
	"time"

	"streamgpu/internal/dedup"
	"streamgpu/internal/ff"
	"streamgpu/internal/lzss"
	"streamgpu/internal/mandel"
	"streamgpu/internal/rabin"
	"streamgpu/internal/sha1x"
	"streamgpu/internal/workload"
)

// HostResult is one measurement of the host suite. AllocsPerOp < 0 means
// allocation accounting was not meaningful for this entry (multi-goroutine
// pipelines); benchdiff skips negative values.
type HostResult struct {
	Name        string  `json:"name"`
	Unit        string  `json:"unit"`
	Value       float64 `json:"value"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Before and BeforeAllocsPerOp are the ledger half of a committed
	// baseline entry: the same measurement on the same machine at the commit
	// before the change that claims the entry, written by hand when the
	// baseline is re-recorded. RunHost never sets them and Diff ignores
	// them; they are there so a claimed win has its before/after pair next to
	// the number that ratchets it.
	Before            float64 `json:"before,omitempty"`
	BeforeAllocsPerOp float64 `json:"before_allocs_per_op,omitempty"`
}

// HostReport is the full suite output, the schema committed as
// BENCH_baseline.json.
type HostReport struct {
	Schema     string `json:"schema"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Calib is a machine-speed scalar (single-thread MB/s of a frozen scalar
	// SHA-1 over a fixed buffer, calibSHA1). benchdiff normalizes throughput thresholds by the ratio of
	// fresh to baseline Calib, so a committed baseline stays meaningful on
	// hardware of a different speed.
	Calib   float64      `json:"calib"`
	Results []HostResult `json:"results"`
}

// HostOptions sizes the host suite.
type HostOptions struct {
	// InputBytes is the Dedup workload size (default 4 MiB).
	InputBytes int
	// MinTime is the minimum measuring window per entry (default 250 ms).
	MinTime time.Duration
	// Workers is the parallel-pipeline width (default max(2, GOMAXPROCS)).
	Workers int
}

func (o HostOptions) inputBytes() int {
	if o.InputBytes <= 0 {
		return 4 << 20
	}
	return o.InputBytes
}

func (o HostOptions) minTime() time.Duration {
	if o.MinTime <= 0 {
		return 250 * time.Millisecond
	}
	return o.MinTime
}

func (o HostOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	return w
}

// hostTime runs fn repeatedly until the measuring window has elapsed and
// returns the mean seconds per op.
func hostTime(min time.Duration, fn func()) float64 {
	fn() // warm caches and pools
	var (
		elapsed time.Duration
		ops     int
	)
	for elapsed < min {
		t0 := time.Now()
		fn()
		elapsed += time.Since(t0)
		ops++
	}
	return elapsed.Seconds() / float64(ops)
}

// hostAllocs returns the mean heap allocations per call of fn, measured on
// the calling goroutine via the runtime's malloc counter.
func hostAllocs(iters int, fn func()) float64 {
	fn() // steady state: warm free lists before counting
	runtime.GC()
	// The GC just swept the sync.Pool-backed free lists; run once more so the
	// refill allocations land outside the counted window. Eviction is a GC
	// policy cost, not a per-op cost, and counting it would make the
	// zero-alloc pins flap with collector timing.
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

// calibScore measures single-thread MB/s of the frozen scalar SHA-1 probe
// (calibSHA1) over a fixed 1 MiB buffer — the machine-speed normalizer for
// cross-host baseline comparison.
func calibScore() float64 {
	buf := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: 1 << 20, Seed: 9})
	sec := hostTime(200*time.Millisecond, func() { calibSHA1(buf) })
	return float64(len(buf)) / 1e6 / sec
}

// Calib exposes the machine-speed normalizer for other report producers
// (e.g. the load generator), so their reports can be diffed against
// baselines recorded on different hosts with the same scaling rule Diff
// applies to hostbench reports.
func Calib() float64 { return calibScore() }

// RunHost executes the host-throughput suite and returns the report.
func RunHost(opt HostOptions) HostReport {
	rep := HostReport{
		Schema:     "streamgpu-hostbench/v1",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Calib:      calibScore(),
	}
	min := opt.minTime()
	input := workload.Generate(workload.Spec{Kind: workload.Large, Size: opt.inputBytes(), Seed: 1})
	mb := float64(len(input)) / 1e6
	add := func(name, unit string, value, allocs float64) {
		rep.Results = append(rep.Results, HostResult{Name: name, Unit: unit, Value: value, AllocsPerOp: allocs})
	}

	// --- Dedup end-to-end (host wall clock, archive to io.Discard) ---
	sec := hostTime(min, func() {
		if _, err := dedup.CompressSeq(input, io.Discard, dedup.Options{}); err != nil {
			panic(err)
		}
	})
	seqMBs := mb / sec
	add("dedup_seq", "MB/s", seqMBs, -1)
	sec = hostTime(min, func() {
		if _, err := dedup.CompressSPar(input, io.Discard, dedup.Options{Workers: opt.workers()}); err != nil {
			panic(err)
		}
	})
	sparMBs := mb / sec
	add("dedup_spar", "MB/s", sparMBs, -1)
	// The parallel/sequential ratio is dimensionless (unit "x"), which exempts
	// it from Diff's calib scaling — the CI gate asserts it directly with
	// benchdiff -require at GOMAXPROCS > 1.
	add("dedup_spar_speedup", "x", sparMBs/seqMBs, -1)

	// --- Dedup per-stage throughput ---
	addDedupStages(add, min, input)

	// --- Mandelbrot host rows/s on the FastFlow runtime ---
	p := mandel.Params{Dim: 128, Niter: 256, InitA: -2.0, InitB: -1.25, Range: 2.5}
	sec = hostTime(min, func() {
		if _, err := mandel.RunFF(p, opt.workers()); err != nil {
			panic(err)
		}
	})
	add("mandel_ff_rows", "rows/s", float64(p.Dim)/sec, -1)

	// --- SPSC queue transfer ---
	ops, allocs := spscTransfer(min)
	add("spsc_transfer", "ops/s", ops, allocs)

	return rep
}

// addDedupStages measures each pipeline stage in isolation over the same
// input: fragmentation (Rabin boundaries), SHA-1 block hashing, and LZSS
// match+encode, plus allocation counts on the kernel hot paths.
func addDedupStages(add func(name, unit string, value, allocs float64), min time.Duration, input []byte) {
	mb := float64(len(input)) / 1e6

	// Stage 1: fragmentation. One op = the full input, through the pooled
	// path the streaming pipeline uses (recycled batches and boundary
	// arrays).
	frag := func() {
		dedup.FragmentInto(input, dedup.DefaultBatchSize, func(b *dedup.Batch) { b.Release() })
	}
	sec := hostTime(min, frag)
	add("dedup_fragment", "MB/s", mb/sec, hostAllocs(4, frag))

	// A single batch for the per-batch kernels.
	var batch *dedup.Batch
	dedup.Fragment(input, dedup.DefaultBatchSize, func(b *dedup.Batch) {
		if batch == nil {
			batch = b
		}
	})
	bmb := float64(len(batch.Data)) / 1e6

	// Stage 2: SHA-1 over every block of one batch.
	hash := func() { batch.HashBlocks() }
	sec = hostTime(min, hash)
	add("dedup_hash", "MB/s", bmb/sec, hostAllocs(8, hash))

	// GPU kernel body: all-positions LZSS match-finding over one batch (the
	// host compressors no longer run this; see lzss_compress_block).
	ml := make([]int32, len(batch.Data))
	mo := make([]int32, len(batch.Data))
	m := lzss.NewMatcher()
	find := func() { m.FindMatches(batch.Data, batch.StartPos, ml, mo) }
	sec = hostTime(min, find)
	add("lzss_find_matches", "MB/s", bmb/sec, hostAllocs(8, find))

	// The same all-positions match-finding fanned out across
	// DefaultLanes pooled matchers (bit-exact to the sequential pass). The
	// zero-alloc pin covers the whole spawn/join machinery.
	findPar := func() { lzss.FindMatchesPar(0, batch.Data, batch.StartPos, ml, mo) }
	sec = hostTime(min, findPar)
	add("lzss_find_matches_par", "MB/s", bmb/sec, hostAllocs(8, findPar))

	// Stage 4 on one core: every block of the batch through the fused
	// greedy encoder the host compress paths run (search only where a token
	// starts), one matcher, no lanes, into a recycled arena.
	var arena []byte
	compressBlock := func() {
		arena = arena[:0]
		for k := 0; k < batch.NBlocks(); k++ {
			lo, hi := batch.Block(k)
			arena = m.AppendCompress(arena, batch.Data[lo:hi])
		}
	}
	sec = hostTime(min, compressBlock)
	add("lzss_compress_block", "MB/s", bmb/sec, hostAllocs(8, compressBlock))

	// Stage 4 end-to-end: per-block compression of one batch through the
	// pipeline's lane-parallel compress stage, every block marked a first
	// sighting so the whole batch is encoded each op.
	batch.MarkFirsts(allFirsts{})
	compress := func() { batch.CompressFirsts(m, lzss.DefaultLanes()) }
	sec = hostTime(min, compress)
	add("dedup_compress", "MB/s", bmb/sec, hostAllocs(4, compress))

	// The served GPU path: one batch through Processor.Process on the
	// simulated device — hash and FindMatch kernels, their copies, and the
	// encode from the downloaded matches. Wall clock, not virtual time: this
	// is what a serve_gpu request waits for. The allocation pin covers the
	// per-batch simulation (DES processes and events, device, stream, buffer
	// handles); buffers come from the Processor's persistent memory space.
	gp := dedup.NewProcessor(dedup.GPUOptions{}, true)
	gpuBatch := func() { gp.Process(batch, allFirsts{}) }
	sec = hostTime(min, gpuBatch)
	add("gpu_process_batch", "MB/s", bmb/sec, hostAllocs(8, gpuBatch))

	// Dedup-hint store under contention: GOMAXPROCS goroutines hammering one
	// sharded store with overlapping batches of hashes. Allocation accounting
	// is multi-goroutine, hence exempt.
	ops := storeContended(min)
	add("store_contended_lookup", "ops/s", ops, -1)

	// Stage 1 core: Rabin boundary scan alone, appending into a recycled
	// array.
	ch := rabin.NewChunker()
	data := batch.Data
	var starts []int32
	bounds := func() { starts = ch.AppendBoundaries(starts[:0], data) }
	sec = hostTime(min, bounds)
	add("rabin_boundaries", "MB/s", bmb/sec, hostAllocs(8, bounds))
}

// allFirsts is a BlockStore that reports every block as a first sighting,
// so the compress benchmark encodes the whole batch each op.
type allFirsts struct{}

func (allFirsts) FirstSightings(hashes [][sha1x.Size]byte, dst []bool) {
	for i := range hashes {
		dst[i] = true
	}
}

// storeContended measures the sharded duplicate store's lookup rate under
// contention: GOMAXPROCS goroutines each sweeping the same pre-inserted hash
// set, so every probe contends on stripe locks without mutating the table.
// Returns hashes looked up per second across all workers.
func storeContended(min time.Duration) float64 {
	const n = 4096
	hashes := make([][sha1x.Size]byte, n)
	for i := range hashes {
		hashes[i] = sha1x.Sum20([]byte{byte(i), byte(i >> 8), 0x5C})
	}
	store := dedup.NewStore()
	seed := make([]bool, n)
	store.FirstSightings(hashes, seed) // pre-insert: measured traffic is all lookups
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	dsts := make([][]bool, workers)
	for i := range dsts {
		dsts[i] = make([]bool, n)
	}
	oneRun := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				store.FirstSightings(hashes, dsts[w])
			}()
		}
		wg.Wait()
	}
	sec := hostTime(min, oneRun)
	return float64(workers) * n / sec
}

// spscTransferN is how many elements one SPSC measurement moves.
const spscTransferN = 1 << 19

// spscTransfer measures the queue's producer→consumer transfer rate in the
// shape the runtime uses it (blocking mode, dedicated producer and consumer
// goroutines, burst push/pop) and the allocations per transferred element.
func spscTransfer(min time.Duration) (opsPerSec, allocsPerOp float64) {
	q := ff.NewSPSC[int64](1024, false)
	oneRun := func() {
		done := make(chan struct{})
		go func() {
			buf := make([]int64, 64)
			for i := range buf {
				buf[i] = int64(i)
			}
			sent := 0
			for sent < spscTransferN {
				n := len(buf)
				if spscTransferN-sent < n {
					n = spscTransferN - sent
				}
				pushed := q.TryPushN(buf[:n])
				if pushed == 0 {
					runtime.Gosched()
				}
				sent += pushed
			}
			close(done)
		}()
		buf := make([]int64, 64)
		var sink int64
		got := 0
		for got < spscTransferN {
			n := q.TryPopN(buf)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < n; i++ {
				sink += buf[i]
			}
			got += n
		}
		<-done
		_ = sink
	}
	sec := hostTime(min, oneRun)

	// Allocation count on the single-goroutine fast path (burst push + pop;
	// the concurrent path above would charge scheduler noise).
	q2 := ff.NewSPSC[int64](256, false)
	buf := make([]int64, 64)
	allocs := hostAllocs(4, func() {
		for i := 0; i < 16; i++ {
			q2.TryPushN(buf)
			q2.TryPopN(buf)
		}
	}) / 1024
	return spscTransferN / sec, allocs
}
