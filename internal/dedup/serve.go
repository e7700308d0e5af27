package dedup

import (
	"strconv"

	"streamgpu/internal/des"
	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/health"
	"streamgpu/internal/lzss"
	"streamgpu/internal/telemetry"
)

// MarkFirsts runs the dedup-hint stage against store (see markFirsts); it is
// the exported form used by batch processors outside this package's own
// pipelines.
func (b *Batch) MarkFirsts(store BlockStore) { b.markFirsts(store) }

// WriteBlocks writes the batch's blocks to dw in stream order — the ordered
// final-stage body (writeBatch), exported for external sinks such as the
// serving layer's per-session archive writers.
func (b *Batch) WriteBlocks(dw *Writer) error { return writeBatch(b, dw) }

// Flush pushes buffered archive bytes to the underlying writer without
// ending the stream — the serving path ships archive deltas to clients
// incrementally, so it needs the buffer drained at response boundaries while
// the stream stays open for the next batch.
func (dw *Writer) Flush() error {
	if !dw.started {
		if _, err := dw.w.Write(magic); err != nil {
			return err
		}
		dw.started = true
	}
	return dw.w.Flush()
}

// Processor turns one pooled batch into a fully prepared batch (hashes,
// dedup hints, compressed firsts) for an ordered writer downstream. Each
// server pipeline replica owns one, and the sequential batch loop behind
// CompressGPU and CompressSeq (Lanes > 1) runs one. The CPU path reuses a
// private lzss.Matcher across batches; the GPU path offloads the SHA-1 and
// match-finding kernels to a simulated device with per-batch fault
// injection, retry, and CPU degradation. Either way the downstream Writer
// makes the authoritative stream-order dedup decision, so the archive bytes
// are identical to CompressSeq's regardless of path or fault schedule.
type Processor struct {
	opt GPUOptions
	gpu bool
	m   *lzss.Matcher
	rep GPUReport

	// GPU path state, built on first use and kept for the Processor's life:
	// the one memory space its batches cycle through, and per device index
	// the metric handles a per-batch device would otherwise look up again.
	ms        *memSpace
	devs      []devHandles
	placedCPU *telemetry.Counter
}

// devHandles is what the Processor resolves once per device index.
type devHandles struct {
	tel            *gpu.Instruments
	placed, probes *telemetry.Counter // dedup_placed_total{probe="false"|"true"}
}

// NewProcessor builds a processor. useGPU selects the device path; opt's
// fault config drives its injector (the seed is mixed with the batch
// sequence number so each batch sees an independent deterministic schedule).
func NewProcessor(opt GPUOptions, useGPU bool) *Processor {
	return &Processor{opt: opt, gpu: useGPU, m: lzss.NewMatcher()}
}

// Report returns the accumulated recovery counters (GPU path only).
func (p *Processor) Report() GPUReport { return p.rep }

// Process prepares b in place: hash every block, consult store for the
// first-sighting hint, and compress the hinted-first blocks. It never fails;
// the GPU path degrades to the CPU path on faults, and a quarantined
// device's batches are rerouted to the CPU outright. The store's Exchange
// hook then sees the compressed batch.
func (p *Processor) Process(b *Batch, store BlockStore) {
	if p.gpu {
		p.processGPU(b, store)
	} else {
		p.processCPU(b, store)
	}
	store.Exchange(b)
}

// processCPU is the reference path: always correct, never consulted by the
// health scoreboard. Compression fans out across the configured lanes
// (GOMAXPROCS-derived by default), bit-exact to the sequential encoder.
func (p *Processor) processCPU(b *Batch, store BlockStore) {
	b.HashBlocks()
	b.markFirsts(store)
	b.CompressFirsts(p.m, p.opt.lanes())
}

// deviceFor spreads batches across the simulated device pool by sequence
// number: blind placement, Fig. 7's baseline.
func (p *Processor) deviceFor(b *Batch) int {
	n := p.opt.devices()
	if n == 1 {
		return 0
	}
	return int(uint(b.Seq) % uint(n))
}

// place picks the batch's device. Without a scoreboard (or with
// BlindPlacement) it is the sequence-modulo spread, filtered through Route
// when a scoreboard exists; with one, Place makes the score-weighted
// decision for the whole pool. A zero Route means the CPU fallback.
func (p *Processor) place(b *Batch) (int, health.Route) {
	if p.opt.Health != nil && !p.opt.BlindPlacement {
		return p.opt.Health.Place()
	}
	devIdx := p.deviceFor(b)
	route := health.Route{Device: true}
	if p.opt.Health != nil {
		route = p.opt.Health.Route(devIdx)
	}
	return devIdx, route
}

// processGPU runs the batch's kernels on a private simulated device: one
// simulation per batch, so device loss costs one batch (degraded to the
// CPU), not the rest of the stream. When a health scoreboard is
// configured, placement is score-weighted across the pool: a quarantined
// device gets only probe batches, a batch no device can take reroutes to the
// CPU, and each device-run outcome (clean, or any fault the recovery ladder
// absorbed) plus its virtual service time feeds back into the scoreboard.
func (p *Processor) processGPU(b *Batch, store BlockStore) {
	devIdx, route := p.place(b)
	if !route.Device {
		p.processCPU(b, store)
		p.rep.Rerouted++
		p.countPlaced(&p.placedCPU, "cpu", false)
		if p.opt.Placed != nil {
			p.opt.Placed(-1, false, 0)
		}
		return
	}

	if p.ms == nil {
		p.ms = newMemSpace()
		p.devs = make([]devHandles, p.opt.devices())
	}
	h := &p.devs[devIdx]
	before := p.rep
	sim := des.New()
	dev := gpu.NewDevice(sim, p.opt.specFor(devIdx), devIdx)
	if h.tel == nil {
		h.tel = gpu.NewInstruments(p.opt.Metrics, devIdx)
	}
	dev.SetInstruments(h.tel)
	if fc := p.opt.faultsFor(devIdx); fc != (fault.Config{}) {
		// Decorrelate batches while keeping each schedule reproducible.
		fc.Seed ^= int64(uint64(b.Seq+1) * 0x9e3779b97f4a7c15)
		dev.SetFaultInjector(fault.New(fc))
	}
	done := false
	sim.Spawn("serve-batch", func(proc *des.Proc) {
		st := dev.NewStream("")
		p.gpuHash(proc, st, dev, b)
		p.gpuCompress(proc, st, dev, b, store)
		done = true
	})
	end, err := sim.Run()
	if err != nil || !done {
		// Simulation-level failure: recompute the whole batch on the CPU.
		// The stage bodies are idempotent, so redoing work a partially
		// successful simulation already did is safe.
		p.processCPU(b, store)
		p.rep.CPUHash++
		p.rep.CPUCompress++
	}
	if dev.Lost() {
		p.rep.DeviceLost = true
	}
	virt := end.Seconds()
	if p.opt.Health != nil {
		// Any fault-injector activity this batch — an absorbed retry, a
		// stage degraded to the CPU, or device loss — counts against the
		// device's scoreboard.
		faulted := p.rep.Retries != before.Retries ||
			p.rep.CPUHash != before.CPUHash ||
			p.rep.CPUCompress != before.CPUCompress ||
			dev.Lost()
		p.opt.Health.Record(devIdx, route, faulted)
		if err == nil && done {
			// Retry backoff inflates the virtual time — that is genuinely
			// degraded service and belongs in the score; only a dead
			// simulation's truncated clock is discarded.
			p.opt.Health.ObserveService(devIdx, virt, len(b.Data))
		}
	}
	if route.Probe {
		p.countPlaced(&h.probes, dev.Name(), true)
	} else {
		p.countPlaced(&h.placed, dev.Name(), false)
	}
	if p.opt.Placed != nil {
		p.opt.Placed(devIdx, route.Probe, virt)
	}
}

// countPlaced bumps dedup_placed_total{device, probe} through *c, resolving
// the handle on first use.
func (p *Processor) countPlaced(c **telemetry.Counter, device string, probe bool) {
	if *c == nil {
		*c = p.opt.Metrics.Counter("dedup_placed_total", placeLabels(device, probe))
	}
	(*c).Add(1)
}

// placeLabels builds the dedup_placed_total label set: the device's instance
// name (or "cpu" for rerouted batches), and whether the batch was a probe
// sent to a quarantined device rather than regular traffic.
func placeLabels(device string, probe bool) telemetry.Labels {
	return telemetry.Labels{"device": device, "probe": strconv.FormatBool(probe)}
}
