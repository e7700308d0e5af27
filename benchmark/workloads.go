package main

import "streamgpu/internal/workload"

// Shapes shared by every workload. They are constants, not flags: a knob
// that two runs could set differently is a number nobody can compare.
const (
	// conns is the number of client connections (and client goroutines);
	// the box this was sized on reports 2 cores.
	conns = 2
	// warmup requests per connection precede the window, uncounted, so
	// pools, the deadline estimator and TCP are warm.
	warmup = 8
	// slices the timed window is cut into; throughput is the median slice.
	slices = 8
	// corpusBytes caps the generated corpus dedup payloads are cut from;
	// requests beyond one pass over it re-use it XOR-salted.
	corpusBytes = 64 << 20
	// mandel request shape: 16 rows of a 1024x1024 image, 256 iterations.
	mandelDim, mandelNiter, mandelRows = 1024, 256, 16
	// mandelSample: one response in this many is recomputed after the window.
	mandelSample = 16
)

type svcKind int

const (
	svcDedup svcKind = iota
	svcMandel
	svcFile // no server: dedup.CompressSPar in-process
)

// spec is one named workload. perSec sizes the fixed work: a connection
// sends round(perSec*seconds) timed requests, calibrated so that --seconds
// is about the window's wall time at the recorded baseline. Work is fixed,
// not time, so counts, compress_ratio and the verified bytes repeat exactly
// for a seed.
type spec struct {
	name string
	why  string
	svc  svcKind
	// open selects the open-loop driver: pipelined sends on a seeded
	// arrival schedule at perSec requests/s per connection, latency timed
	// from each request's due time.
	open   bool
	gpu    bool
	perSec float64
	// Request payload sizes are uniform in [minSize, maxSize] bytes; for
	// file_spar both are the input's size.
	minSize, maxSize int
	// dupEvery > 0 makes exactly one request in every dupEvery fresh and
	// the rest repeats of an earlier fresh request on the same connection
	// (duplicate share 1-1/dupEvery); 0 makes every request fresh.
	dupEvery int
	corpus   workload.Kind
}

var specs = []spec{
	{
		name: "serve_batch_unique", svc: svcDedup, perSec: 18.5,
		minSize: 1 << 20, maxSize: 1 << 20, corpus: workload.Silesia,
		why: "1 MiB requests, no duplicates: LZSS match-finding carries the run, server overhead is negligible",
	},
	{
		name: "serve_batch_dup", svc: svcDedup, perSec: 70,
		minSize: 1 << 20, maxSize: 1 << 20, dupEvery: 20, corpus: workload.Silesia,
		why: "1 MiB requests, 95% repeats: bypasses the matcher, so rabin, sha1x, store hits, writer and wire copies carry the run",
	},
	{
		name: "serve_small", svc: svcDedup, open: true, perSec: 100,
		minSize: 4 << 10, maxSize: 64 << 10, corpus: workload.Silesia,
		why: "open loop, 4-64 KiB at 200 req/s (~20% CPU): latency is linger, queueing and per-request overhead, not compute",
	},
	{
		name: "serve_mandel", svc: svcMandel, perSec: 125,
		why: "the paper's second application: 16-byte requests, 16 KiB responses, no coalescer and no dedup; a dedup-side change predicts no change here",
	},
	{
		name: "serve_gpu", svc: svcDedup, gpu: true, perSec: 7.6,
		minSize: 1 << 20, maxSize: 1 << 20, corpus: workload.Silesia,
		why: "serve_batch_unique with GPU: true: the per-batch simulated device runs on the host's clock, so internal/gpu and internal/des wall cost carries the run",
	},
	{
		name: "file_spar", svc: svcFile, perSec: 1.15,
		minSize: 32 << 20, maxSize: 32 << 20, corpus: workload.Large,
		why: "no server: dedup.CompressSPar over a 32 MiB paper-like input through internal/core and internal/ff, with the single-threaded baseline beside it",
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef documents one metric; -h, the README and BENCHMARK.json all
// list exactly these names.
type metricDef struct {
	name, unit, better string
	def                string
}

// endToEnd is printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"throughput_mb_s", "MB/s", "higher", "verified payload bytes per wall second (request bytes for dedup, response bytes for mandel, input bytes for file_spar); median of 8 window slices, whole-window mean on the open loop"},
	{"latency_p50_ms", "ms", "lower", "send->verdict (closed loop), due->verdict (open loop), or one CompressSPar call (file_spar), over all samples"},
	{"cpu_s_per_gb", "s/GB", "lower", "process user+sys CPU (getrusage delta over the window) per GB of payload"},
	{"mallocs_per_mb", "1/MB", "lower", "runtime.MemStats.Mallocs delta over the window per MB of payload"},
	{"peak_rss_mb", "MB", "lower", "ru_maxrss when the window closes (verification afterwards is not counted)"},
	{"compress_ratio", "ratio", "lower", "verdict payload bytes received per request payload byte sent, whole stream; archive/input for dedup, exact for a seed"},
	{"setup_s", "s", "lower", "corpus generation, schedule, server start, dial and warm-up; done three times, median reported"},
}

// perLayer is printed by every traced run. A layer that is not on a
// workload's path reads 0 there.
var perLayer = []metricDef{
	{"failed_share", "ratio", "lower", "(transport errors + rejects + server errors + verification mismatches) / requests attempted, both windows"},
	{"latency_p90_ms", "ms", "lower", "C: tail of the latency samples; p90 is the highest percentile with >=10 samples beyond it on the smallest workload"},
	{"wire.encode_us_per_mb", "us/MB", "lower", "R: wire.Append of request and response frames per MB framed"},
	{"wire.decode_us_per_mb", "us/MB", "lower", "R: wire.Decode of the same frames"},
	{"server.service_mean_ms", "ms", "lower", "S: server_service_seconds sum/count over the window"},
	{"server.wait_mean_ms", "ms", "lower", "S,R: service mean minus the replayed server-side stage sum of the mean request (linger + queue + scheduling)"},
	{"server.net_mean_ms", "ms", "lower", "C,S: client mean latency minus server.service_mean_ms"},
	{"server.batch_fill", "ratio", "higher", "S: batch bytes / (batches x 1 MiB)"},
	{"server.batches_per_req", "ratio", "lower", "S: batches sealed per request"},
	{"server.seal_linger_share", "ratio", "lower", "S: share of batches sealed by the linger timer"},
	{"server.seal_full_share", "ratio", "higher", "S: share of batches sealed full"},
	{"server.rejected", "count", "lower", "S: requests answered TReject, all reasons"},
	{"qos.sched_ns_per_item", "ns", "lower", "R: qos.Sched Enqueue+Next round trip"},
	{"rabin.ms_per_mb", "ms/MB", "lower", "R: dedup.NewStreamBatch (Rabin boundaries)"},
	{"rabin.blocks_per_mb", "1/MB", "lower", "R: blocks cut per MB"},
	{"sha1x.ms_per_mb", "ms/MB", "lower", "R: Batch.HashBlocks"},
	{"dedup.mark_us_per_kblock", "us", "lower", "R: Batch.MarkFirsts per 1000 blocks looked up"},
	{"dedup.first_share", "ratio", "lower", "R: first sightings / blocks looked up"},
	{"dedup.write_ms_per_mb", "ms/MB", "lower", "R: Batch.WriteBlocks + Writer.Flush"},
	{"dedup.restore_ms_per_mb", "ms/MB", "lower", "R: dedup.Restore of the replayed archive per MB restored"},
	{"dedup.seq_mb_s", "MB/s", "higher", "R: dedup.CompressSeq, one lane, same input (file_spar)"},
	{"dedup.spar_speedup", "x", "higher", "file_spar throughput / dedup.seq_mb_s"},
	{"lzss.ms_per_mb", "ms/MB", "lower", "R: Batch.CompressFirsts, one lane, per MB of payload"},
	{"lzss.ms_per_first_mb", "ms/MB", "lower", "R: the same time per MB actually compressed"},
	{"lzss.lane_speedup", "x", "higher", "R: one-lane time / default-lanes time, same batches"},
	{"core.process_busy_share", "ratio", "lower", "S: replicated stage's ff_stage_service_seconds sum / (window x replicas)"},
	{"core.sink_busy_share", "ratio", "lower", "S: ordered sink stage's service sum / window"},
	{"ff.spsc_ns_per_item", "ns", "lower", "R: ff.SPSC producer->consumer transfer"},
	{"ff.mpmc_ns_per_item", "ns", "lower", "R: ff.MPMC producer->consumer transfer"},
	{"ff.farm_ns_per_item", "ns", "lower", "R: source -> 2 no-op farm workers -> sink"},
	{"mandel.us_per_row", "us", "lower", "R: mandel.Params.ComputeRow"},
	{"gpu.batch_wall_ms", "ms", "lower", "R: dedup.NewProcessor(opt, true).Process wall time per batch"},
	{"gpu.sim_overhead_x", "x", "lower", "R: gpu.batch_wall_ms / CPU replay sum of the same batch"},
	{"gpu.cpu_fallbacks", "count", "lower", "R: Processor.Report CPU-degraded or rerouted batches"},
	{"gpu.kernel_virtual_ms", "ms", "lower", "S: simulated kernel seconds per batch (device histograms); never added to a wall figure"},
	{"gpu.copy_virtual_ms", "ms", "lower", "S: simulated H2D+D2H seconds per batch; never added to a wall figure"},
	{"pool.miss_share", "ratio", "lower", "S: server.payload pool misses / gets"},
	{"telemetry.overhead_share", "ratio", "lower", "(untraced - traced throughput) / untraced, two half-length windows of one process"},
	{"client.late_p99_ms", "ms", "lower", "C: how late the open-loop generator sent, p99"},
	{"client.latency_p99_ms", "ms", "lower", "C: ungated tail of the latency samples"},
	{"client.samples", "count", "higher", "C: latency samples in the traced window"},
}
