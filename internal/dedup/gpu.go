package dedup

import (
	"io"
	"slices"
	"time"

	"streamgpu/internal/des"
	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/health"
	"streamgpu/internal/lzss"
	"streamgpu/internal/sha1x"
)

// GPUOptions configures CompressGPU.
type GPUOptions struct {
	Options
	// MaxRetries bounds transient-fault retries per stage per batch before
	// the stage degrades to its CPU path.
	MaxRetries int
	// Faults is the device's injector config; the zero value runs fault-free.
	Faults fault.Config
	// Devices is the simulated device pool size for the serving path's
	// Processor: batches are spread across devices by sequence number
	// (default 1). CompressGPU ignores it — a one-shot run owns one device.
	Devices int
	// FaultsFor, when set, overrides Faults per device on the serving path —
	// the chaos harness's hook for degrading one device mid-stream. Called
	// once per batch with the batch's device index.
	FaultsFor func(dev int) fault.Config
	// Health, when set, routes each serving-path batch through the
	// per-device scoreboard: placement weights by health score, a
	// quarantined device gets only probe batches, a batch no device can
	// take runs on the CPU fallback, and every device-run outcome (and its
	// observed service time) is recorded.
	Health *health.Scoreboard
	// Fleet, when set, gives each serving-path device its own spec
	// (heterogeneous pools, gpu.ParseFleet); len(Fleet) overrides Devices.
	// CompressGPU's one-shot device uses Fleet[0] when present.
	Fleet []gpu.DeviceSpec
	// BlindPlacement forces sequence-modulo round-robin even when Health is
	// set (quarantined devices' batches reroute to the CPU instead of other
	// devices) — the pre-placement behavior, kept as the figures baseline.
	BlindPlacement bool
	// Placed, when set, observes every serving-path placement decision:
	// dev >= 0 with the batch's virtual device seconds, or dev = -1 for a
	// batch that ran on the CPU fallback. The fleet figure's lane-accounting
	// hook.
	Placed func(dev int, probe bool, virtualSeconds float64)
}

func (o GPUOptions) devices() int {
	if len(o.Fleet) > 0 {
		return len(o.Fleet)
	}
	if o.Devices <= 0 {
		return 1
	}
	return o.Devices
}

// specFor resolves device dev's hardware spec.
func (o GPUOptions) specFor(dev int) gpu.DeviceSpec {
	if dev >= 0 && dev < len(o.Fleet) {
		return o.Fleet[dev]
	}
	return gpu.TitanXPSpec()
}

// faultsFor resolves the injector config for one device.
func (o GPUOptions) faultsFor(dev int) fault.Config {
	if o.FaultsFor != nil {
		return o.FaultsFor(dev)
	}
	return o.Faults
}

func (o GPUOptions) maxRetries() int {
	if o.MaxRetries <= 0 {
		return 3
	}
	return o.MaxRetries
}

// GPUReport describes where each stage of each batch actually ran and what
// the recovery machinery absorbed.
type GPUReport struct {
	Retries     int // transient faults absorbed by retry
	GPUHash     int // batches hashed on the device
	GPUCompress int // batches match-scanned on the device
	CPUHash     int // batches whose hashing degraded to the CPU
	CPUCompress int // batches whose compression degraded to the CPU
	Rerouted    int // batches rerouted to the CPU by device quarantine
	DeviceLost  bool
}

// CompressGPU is the offloaded Dedup pipeline (§IV-B) under the
// fault-tolerance layer: SHA-1 hashing and LZSS match-finding run as device
// kernels, transient faults are retried with exponential backoff in virtual
// time, and a dead device (or an exhausted retry budget) degrades the
// affected stage to the CPU path. The archive is byte-identical to
// CompressSeq's regardless of the injected fault schedule, because both
// kernels are bit-exact against their CPU references and the Writer makes
// the authoritative stream-order dedup decision either way.
func CompressGPU(input []byte, w io.Writer, opt GPUOptions) (Stats, GPUReport, error) {
	dw := NewWriter(w)
	store := NewStore()
	var rep GPUReport

	var batches []*Batch
	Fragment(input, opt.batchSize(), func(b *Batch) { batches = append(batches, b) })

	sim := des.New()
	dev := gpu.NewDevice(sim, opt.specFor(0), 0)
	dev.SetTelemetry(opt.Metrics)
	if opt.Faults != (fault.Config{}) {
		dev.SetFaultInjector(fault.New(opt.Faults))
	}
	var writeErr error
	ms := newMemSpace()
	sim.Spawn("dedup-gpu", func(proc *des.Proc) {
		st := dev.NewStream("")
		for _, b := range batches {
			gpuHashBatch(proc, st, dev, b, ms, opt, &rep)
			gpuCompressBatch(proc, st, dev, b, ms, store, opt, &rep)
			if err := writeBatch(b, dw); err != nil {
				writeErr = err
				return
			}
		}
	})
	if _, err := sim.Run(); err != nil {
		return dw.Stats(), rep, err
	}
	rep.DeviceLost = dev.Lost()
	if writeErr != nil {
		return dw.Stats(), rep, writeErr
	}
	st := dw.Stats()
	if err := dw.Close(); err != nil {
		return st, rep, err
	}
	return dw.Stats(), rep, nil
}

// memSpace is one persistent device memory space — the unit the paper's
// Fig. 5 "2× mem spaces" step cycles across batches: the bytes behind a
// batch's device buffers, its pinned host staging buffers, and the host-side
// match scratch of the fast FindMatch kernel. It grows to the largest batch
// it has served and is attached anew to each batch's device
// (gpu.MallocOver), so a warm stream offloads without allocating or clearing
// a buffer. It carries no data from batch to batch: every byte a batch reads
// from it was written by that batch's own copies and kernels first, which
// the stale-buffer test checks by poisoning it between batches.
type memSpace struct {
	dIn, dSp, dHash, dMl, dMo []byte      // device-buffer backing
	hSp, hHash, hMl, hMo      gpu.HostBuf // pinned staging
	pre                       lzss.Matches
}

func newMemSpace() *memSpace {
	pinned := gpu.HostBuf{Pinned: true}
	return &memSpace{hSp: pinned, hHash: pinned, hMl: pinned, hMo: pinned}
}

// inputs returns the kernel-input slabs (batch bytes, block starts) for a
// batch of sz bytes in n blocks, zeroed. Zeroed because an upload the
// injector fails leaves its destination as allocated, and the kernel queued
// behind it in the same attempt still runs and is timed on what it finds
// there: zeros keep that doomed attempt's virtual time — and the SHA-1
// kernel's block bounds — a function of this batch, not of the previous
// one. The output slabs need no such care: nothing reads them before a
// kernel of the same attempt has written them.
func (ms *memSpace) inputs(sz, n int) (in, sp []byte) {
	in, sp = resized(&ms.dIn, sz), resized(&ms.dSp, n*4)
	clear(in)
	clear(sp)
	return in, sp
}

// attach allocates one device buffer over each backing slab — all or none —
// and returns the function that frees them.
func attach(dev *gpu.Device, bufs []*gpu.Buf, backing ...[]byte) (free func(), err error) {
	free = func() {
		for _, b := range bufs {
			if b != nil {
				b.Free()
			}
		}
	}
	for i, s := range backing {
		if bufs[i], err = dev.MallocOver(s); err != nil {
			free()
			return nil, err
		}
	}
	return free, nil
}

// gpuHashBatch fills b.Hashes, preferring the device SHA-1 kernel and
// degrading to the CPU path on device loss or an exhausted retry budget.
func gpuHashBatch(proc *des.Proc, st *gpu.Stream, dev *gpu.Device, b *Batch, ms *memSpace, opt GPUOptions, rep *GPUReport) {
	n := b.NBlocks()
	if n == 0 {
		b.Hashes = b.Hashes[:0]
		return
	}
	cpu := func() {
		b.HashBlocks()
		rep.CPUHash++
	}
	sz := len(b.Data)
	var d [3]*gpu.Buf
	in, sp := ms.inputs(sz, n)
	free, err := attach(dev, d[:], in, sp, resized(&ms.dHash, n*sha1x.Size))
	if err != nil {
		cpu()
		return
	}
	defer free()
	dIn, dSp, dOut := d[0], d[1], d[2]
	hIn := gpu.WrapHost(b.Data)
	sha1x.PutStartPos(resized(&ms.hSp.Data, n*4), b.StartPos)
	resized(&ms.hHash.Data, n*sha1x.Size)

	run := func() error {
		ev1 := st.CopyH2D(proc, dIn, 0, hIn, 0, int64(sz))
		ev2 := st.CopyH2D(proc, dSp, 0, &ms.hSp, 0, int64(n*4))
		evK := st.Launch(proc, sha1x.Kernel.Bind(dIn, dSp, n, sz, dOut), gpu.Grid1D(n, 64))
		evC := st.CopyD2H(proc, &ms.hHash, 0, dOut, 0, int64(n*sha1x.Size))
		return gpu.WaitErr(proc, ev1, ev2, evK, evC)
	}
	if err := withRetry(proc, opt.maxRetries(), rep, run); err != nil {
		cpu()
		return
	}
	resized(&b.Hashes, n)
	for k := 0; k < n; k++ {
		copy(b.Hashes[k][:], ms.hHash.Data[k*sha1x.Size:])
	}
	rep.GPUHash++
}

// gpuCompressBatch fills b.Comp for the blocks this run sees first,
// preferring the device match kernel and degrading to the CPU path on
// device loss or an exhausted retry budget.
func gpuCompressBatch(proc *des.Proc, st *gpu.Stream, dev *gpu.Device, b *Batch, ms *memSpace, store BlockStore, opt GPUOptions, rep *GPUReport) {
	n := b.NBlocks()
	clear(resized(&b.Comp, n))
	if n == 0 {
		return
	}
	b.markFirsts(store)
	if !slices.Contains(b.firsts, true) {
		return
	}
	cpu := func() {
		m := laneMatchers.Get()
		b.compressFirsts(m)
		laneMatchers.Release(m)
		rep.CPUCompress++
	}
	sz := len(b.Data)
	var d [4]*gpu.Buf
	in, sp := ms.inputs(sz, n)
	free, err := attach(dev, d[:], in, sp, resized(&ms.dMl, sz*4), resized(&ms.dMo, sz*4))
	if err != nil {
		cpu()
		return
	}
	defer free()
	dIn, dSp, dMl, dMo := d[0], d[1], d[2], d[3]
	hIn := gpu.WrapHost(b.Data)
	sha1x.PutStartPos(resized(&ms.hSp.Data, n*4), b.StartPos)
	resized(&ms.hMl.Data, sz*4)
	resized(&ms.hMo.Data, sz*4)
	ms.pre.Fill(b.Data, b.StartPos)
	spec := lzss.FastKernel()

	run := func() error {
		ev1 := st.CopyH2D(proc, dIn, 0, hIn, 0, int64(sz))
		ev2 := st.CopyH2D(proc, dSp, 0, &ms.hSp, 0, int64(n*4))
		evK := st.Launch(proc, spec.Bind(dIn, sz, dSp, n, dMl, dMo, &ms.pre), gpu.Grid1D(sz, 128))
		evL := st.CopyD2H(proc, &ms.hMl, 0, dMl, 0, int64(sz*4))
		evO := st.CopyD2H(proc, &ms.hMo, 0, dMo, 0, int64(sz*4))
		return gpu.WaitErr(proc, ev1, ev2, evK, evL, evO)
	}
	if err := withRetry(proc, opt.maxRetries(), rep, run); err != nil {
		cpu()
		return
	}
	// Encode straight from the downloaded little-endian match buffers.
	b.encodeFirsts(func(dst []byte, lo, hi int) []byte {
		return lzss.AppendEncode(dst, b.Data, lo, hi, ms.hMl.Data, ms.hMo.Data)
	})
	rep.GPUCompress++
}

// withRetry runs fn, retrying transient faults with exponential backoff in
// virtual time up to maxRetries. Device loss is returned immediately.
func withRetry(proc *des.Proc, maxRetries int, rep *GPUReport, fn func() error) error {
	backoff := des.Duration(50 * time.Microsecond)
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		if fault.IsDeviceLost(err) || attempt >= maxRetries {
			return err
		}
		rep.Retries++
		proc.Wait(backoff)
		backoff *= 2
	}
}
