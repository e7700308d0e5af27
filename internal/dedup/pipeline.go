package dedup

import (
	"context"
	"io"

	"streamgpu/internal/core"
	"streamgpu/internal/lzss"
	"streamgpu/internal/telemetry"
)

// Options configures a compression run.
type Options struct {
	// BatchSize is the fragmentation size (default 1 MB).
	BatchSize int
	// Workers replicates the hash and compress stages (the paper uses 19).
	Workers int
	// Lanes is the intra-batch parallelism of the compress stage: each
	// batch's blocks are split into up to Lanes byte-balanced ranges
	// compressed concurrently (lzss.RunLanes), bit-exact to the sequential
	// encoder. 0 derives the count from GOMAXPROCS (lzss.DefaultLanes);
	// negative forces one lane. CompressSeq, the single-threaded reference,
	// ignores it.
	Lanes int
	// Metrics, when set, instruments the run: the SPar pipeline surfaces
	// per-stage counters, service histograms and queue gauges labelled
	// {pipeline="dedup"}; the GPU path additionally attaches the device
	// engine metrics. nil is off.
	Metrics *telemetry.Registry
	// Trace, when set, records per-batch stage enter/exit events on the
	// SPar pipeline. nil is off.
	Trace *telemetry.StreamTracer
}

func (o Options) batchSize() int {
	if o.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return 1
	}
	return o.Workers
}

// lanes resolves the effective compress-lane count for the parallel paths.
func (o Options) lanes() int {
	if o.Lanes > 0 {
		return o.Lanes
	}
	if o.Lanes < 0 {
		return 1
	}
	return lzss.DefaultLanes()
}

// CompressSeq is the single-threaded reference implementation: fragment,
// hash, write — one batch at a time, with the Writer compressing every first
// sighting inline.
func CompressSeq(input []byte, w io.Writer, opt Options) (Stats, error) {
	dw := NewWriter(w)
	var err error
	FragmentInto(input, opt.batchSize(), func(b *Batch) {
		if err == nil {
			b.HashBlocks()
			for k := 0; k < b.NBlocks() && err == nil; k++ {
				lo, hi := b.Block(k)
				err = dw.WriteBlock(b.Hashes[k], b.Data[lo:hi], nil)
			}
		}
		b.Release()
	})
	if err != nil {
		return dw.Stats(), err
	}
	// The reference path always compresses inline; that is not a race
	// fallback, so do not report it as one.
	st := dw.Stats()
	st.FallbackCompressions = 0
	return st, dw.Close()
}

// compressBatches is the sequential batch loop: fragment the input, let p
// prepare each batch against one run-wide store, write it, release it — one
// batch at a time.
func compressBatches(input []byte, w io.Writer, batchSize int, p *Processor) (Stats, error) {
	dw := NewWriter(w)
	store := NewStore()
	var err error
	FragmentInto(input, batchSize, func(b *Batch) {
		if err == nil {
			p.Process(b, store)
			err = writeBatch(b, dw)
		}
		b.Release()
	})
	if err == nil {
		err = dw.Close()
	}
	return dw.Stats(), err
}

// writeBatch is the ordered final-stage body: the authoritative
// stream-order dedup decision plus archive output.
func writeBatch(b *Batch, dw *Writer) error {
	for k := 0; k < b.NBlocks(); k++ {
		lo, hi := b.Block(k)
		if err := dw.WriteBlock(b.Hashes[k], b.Data[lo:hi], b.Comp[k]); err != nil {
			return err
		}
	}
	return nil
}

// CompressSPar runs the paper's CPU-only Dedup: a SPar ToStream region with
// five stages — fragmentation (source, pooled batches), replicated hash,
// serial dedup-mark, replicated compress (per-replica Matcher state, arena
// output), and ordered reorder+write, which releases each batch back to the
// free list — the structure of Griebler et al. [22] with FastFlow's
// buffer-reuse discipline. A warm stream runs the whole path without heap
// allocation.
func CompressSPar(input []byte, w io.Writer, opt Options) (Stats, error) {
	return CompressSParContext(context.Background(), input, w, opt)
}

// CompressSParContext is CompressSPar under a context: cancellation or
// timeout aborts the stream mid-run (the archive is then truncated and the
// context error is returned).
func CompressSParContext(ctx context.Context, input []byte, w io.Writer, opt Options) (Stats, error) {
	dw := NewWriter(w)
	err := sparStream(opt, NewStore(), dw).RunContext(ctx, func(emit func(any)) {
		FragmentInto(input, opt.batchSize(), func(b *Batch) { emit(b) })
	})
	if err == nil {
		err = dw.Close()
	}
	return dw.Stats(), err
}

// Graph is the activity graph of the pipeline CompressSPar runs with opt.
func Graph(opt Options) core.Graph { return sparStream(opt, nil, nil).Graph() }

// sparStream builds CompressSPar's ToStream region: batches from the source
// are marked against store and written to dw.
func sparStream(opt Options, store *Store, dw *Writer) *core.ToStream {
	lanes := opt.lanes()
	return core.NewToStream(core.Input("input", "batchSize"),
		core.Telemetry(opt.Metrics, "dedup"), core.Trace(opt.Trace)).
		Stage(func(item any, emit func(any)) {
			b := item.(*Batch)
			b.HashBlocks()
			emit(b)
		}, core.Replicate(opt.workers()), core.Name("hash"),
			core.Input("input", "batchSize"), core.Output("hashes")).
		Stage(func(item any, emit func(any)) {
			b := item.(*Batch)
			b.markFirsts(store)
			emit(b)
		}, core.Name("dedup"), core.Input("hashes"), core.Output("firsts")).
		StageWorkers(func() core.StageFunc {
			// Each replica owns a Matcher whose hash-chain tables are
			// reused across batches without locking; lanes > 1 also fans
			// each batch out across pooled lane matchers.
			m := lzss.NewMatcher()
			return func(item any, emit func(any)) {
				b := item.(*Batch)
				b.CompressFirsts(m, lanes)
				emit(b)
			}
		}, core.Replicate(opt.workers()),
			core.Name("compress"), core.Input("firsts"), core.Output("batch")).
		StageErr(func(item any, emit func(any)) error {
			// A write failure flows through the runtime's error channel:
			// the stream is canceled and the error returns from Run.
			b := item.(*Batch)
			err := writeBatch(b, dw)
			b.Release()
			return err
		}, core.Name("reorder+write"), core.Input("batch"))
}
