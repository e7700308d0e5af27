package dedup

import (
	"io"
	"slices"

	"streamgpu/internal/des"
	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/health"
	"streamgpu/internal/lzss"
	"streamgpu/internal/sha1x"
)

// GPUOptions configures CompressGPU and the GPU Processor.
type GPUOptions struct {
	Options
	// MaxRetries bounds transient-fault retries per stage per batch before
	// the stage degrades to its CPU path.
	MaxRetries int
	// Faults is the device's injector config; the zero value runs fault-free.
	Faults fault.Config
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
	// Fleet is the simulated device pool, one spec per device (gpu.ParseFleet
	// builds it); empty is one reference Titan XP.
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

func (o GPUOptions) devices() int { return max(len(o.Fleet), 1) }

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
// fault-tolerance layer: the sequential batch loop over a GPU Processor.
// Each batch's SHA-1 hashing and LZSS match-finding run as kernels on a
// simulated device of its own, transient faults are retried with
// exponential backoff in virtual time, and a dead device (or an exhausted
// retry budget) degrades the affected stage of that batch to the CPU path —
// device loss costs one batch, the next gets a fresh device. The archive is
// byte-identical to CompressSeq's regardless of the injected fault schedule,
// because both kernels are bit-exact against their CPU references and the
// Writer makes the authoritative stream-order dedup decision either way.
func CompressGPU(input []byte, w io.Writer, opt GPUOptions) (Stats, GPUReport, error) {
	p := NewProcessor(opt, true)
	st, err := compressBatches(input, w, opt.batchSize(), p)
	return st, p.Report(), err
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

// gpuHash fills b.Hashes, preferring the device SHA-1 kernel and degrading
// to the CPU path on device loss or an exhausted retry budget.
func (p *Processor) gpuHash(proc *des.Proc, st *gpu.Stream, dev *gpu.Device, b *Batch) {
	n := b.NBlocks()
	if n == 0 {
		b.Hashes = b.Hashes[:0]
		return
	}
	cpu := func() {
		b.HashBlocks()
		p.rep.CPUHash++
	}
	ms := p.ms
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
	retries, err := gpu.Retry(proc, p.opt.maxRetries(), run)
	p.rep.Retries += retries
	if err != nil {
		cpu()
		return
	}
	resized(&b.Hashes, n)
	for k := 0; k < n; k++ {
		copy(b.Hashes[k][:], ms.hHash.Data[k*sha1x.Size:])
	}
	p.rep.GPUHash++
}

// gpuCompress fills b.Comp for the blocks this run sees first, preferring
// the device match kernel and degrading to the CPU path — one lane on the
// Processor's own matcher — on device loss or an exhausted retry budget.
// The kernel's host-side result (lzss.Matches.Fill) carries the first
// sightings' encodings, laid out in the batch's lane arenas as
// CompressFirsts lays them out; a clean launch keeps them.
func (p *Processor) gpuCompress(proc *des.Proc, st *gpu.Stream, dev *gpu.Device, b *Batch, store BlockStore) {
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
		b.CompressFirsts(p.m, 1)
		p.rep.CPUCompress++
	}
	ms := p.ms
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
	lanes := min(lzss.DefaultLanes(), n)
	b.startComp(lanes)
	ms.pre.Fill(lanes, b.Data, b.StartPos, dev.Spec.WarpSize, b)
	spec := lzss.FastKernel()

	run := func() error {
		ev1 := st.CopyH2D(proc, dIn, 0, hIn, 0, int64(sz))
		ev2 := st.CopyH2D(proc, dSp, 0, &ms.hSp, 0, int64(n*4))
		evK := st.Launch(proc, spec.Bind(dIn, sz, dSp, n, dMl, dMo, &ms.pre), gpu.Grid1D(sz, 128))
		evL := st.CopyD2H(proc, &ms.hMl, 0, dMl, 0, int64(sz*4))
		evO := st.CopyD2H(proc, &ms.hMo, 0, dMo, 0, int64(sz*4))
		return gpu.WaitErr(proc, ev1, ev2, evK, evL, evO)
	}
	retries, err := gpu.Retry(proc, p.opt.maxRetries(), run)
	p.rep.Retries += retries
	if err != nil {
		cpu()
		return
	}
	p.rep.GPUCompress++
}
