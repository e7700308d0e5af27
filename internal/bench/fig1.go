package bench

import (
	"fmt"

	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
	"streamgpu/internal/gpu/cuda"
	"streamgpu/internal/gpu/opencl"
	"streamgpu/internal/mandel"
	"streamgpu/internal/stats"
)

// API selects the GPU programming model flavour. Both facades sit on the
// same device model; what differs is the host-side semantics each API
// imposes (thread-safe kernel objects vs not, pinned-memory rules), which
// is why the paper — and this harness — measure them within noise of each
// other.
type API string

// The two GPU programming models compared by the paper.
const (
	CUDA   API = "CUDA"
	OpenCL API = "OpenCL"
)

// gq is a uniform handle over a cuda.Stream or an opencl.CommandQueue.
type gq struct {
	api API
	rt  *cuda.Runtime
	cst *cuda.Stream
	ctx *opencl.Context
	oq  *opencl.CommandQueue
	dev int
}

// apiCtx wraps one facade instance over a device set.
type apiCtx struct {
	api  API
	rt   *cuda.Runtime
	ctx  *opencl.Context
	devs []*gpu.Device
}

func newAPICtx(api API, sim *des.Sim, devs []*gpu.Device) *apiCtx {
	a := &apiCtx{api: api, devs: devs}
	// The bench harness always passes at least one device, so a no-devices
	// error here is a programming bug, not a runtime condition.
	var err error
	if api == CUDA {
		a.rt, err = cuda.NewRuntime(sim, devs...)
	} else {
		a.ctx, err = opencl.CreateContext(sim, devs...)
	}
	if err != nil {
		panic(err)
	}
	return a
}

// queue creates a stream/command-queue on device dev.
func (a *apiCtx) queue(p *des.Proc, dev int) *gq {
	q := &gq{api: a.api, rt: a.rt, ctx: a.ctx, dev: dev}
	if a.api == CUDA {
		a.rt.SetDevice(p, dev)
		q.cst = a.rt.StreamCreate(p)
	} else {
		q.oq = a.ctx.CreateCommandQueue(dev)
	}
	return q
}

// dbuf is a uniform device-buffer handle over both APIs.
type dbuf struct {
	raw *gpu.Buf
	ob  *opencl.Buffer
}

// malloc allocates device memory on device dev.
func (a *apiCtx) malloc(p *des.Proc, dev int, n int64) *dbuf {
	if a.api == CUDA {
		a.rt.SetDevice(p, dev)
		b, err := a.rt.Malloc(p, n)
		if err != nil {
			panic(err)
		}
		return &dbuf{raw: b}
	}
	b, err := a.ctx.CreateBuffer(dev, n)
	if err != nil {
		panic(err)
	}
	return &dbuf{raw: b.Raw(), ob: b}
}

// launch enqueues spec<<<g>>>(args...). The OpenCL path allocates a fresh
// kernel object per enqueue, as §IV-A requires for thread safety.
func (q *gq) launch(p *des.Proc, spec *gpu.KernelSpec, g gpu.Grid, args ...any) {
	if q.api == CUDA {
		q.rt.SetDevice(p, q.dev)
		q.rt.LaunchKernel(p, spec, g, q.cst, args...)
		return
	}
	k := opencl.CreateKernel(spec, len(args))
	for i, a := range args {
		k.SetArg(p, i, a)
	}
	bx, by := g.Block.X, g.Block.Y
	if by <= 1 {
		q.oq.EnqueueNDRangeKernel(p, k, g.Threads(), g.ThreadsPerBlock())
	} else {
		gx := g.Grid.X * bx
		gy := by
		if g.Grid.Y > 0 {
			gy = g.Grid.Y * by
		}
		q.oq.EnqueueNDRangeKernel2D(p, k, gx, gy, bx, by)
	}
}

// copyD2H enqueues a device→host copy; pageable host memory makes the call
// blocking under both APIs.
func (q *gq) copyD2H(p *des.Proc, dst *gpu.HostBuf, dev *dbuf, n int64) {
	if q.api == CUDA {
		q.rt.SetDevice(p, q.dev)
		q.rt.MemcpyAsync(p, dev.raw, 0, dst, 0, n, cuda.MemcpyDeviceToHost, q.cst)
		return
	}
	q.oq.EnqueueReadBuffer(p, dst, 0, dev.ob, 0, n, false)
}

// copyH2D enqueues a host→device copy with the same blocking semantics.
func (q *gq) copyH2D(p *des.Proc, dev *dbuf, src *gpu.HostBuf, n int64) {
	if q.api == CUDA {
		q.rt.SetDevice(p, q.dev)
		q.rt.MemcpyAsync(p, dev.raw, 0, src, 0, n, cuda.MemcpyHostToDevice, q.cst)
		return
	}
	q.oq.EnqueueWriteBuffer(p, dev.ob, 0, src, 0, n, false)
}

// record returns a wait-function firing when all work enqueued so far has
// completed (cudaEventRecord / clEnqueueMarker).
func (q *gq) record(p *des.Proc) func(*des.Proc) {
	if q.api == CUDA {
		e := q.rt.EventRecord(p, q.cst)
		return func(p *des.Proc) {
			if err := q.rt.EventSynchronize(p, e); err != nil {
				panic(err)
			}
		}
	}
	e := q.oq.EnqueueMarker(p)
	return func(p *des.Proc) { opencl.WaitForEvents(p, e) }
}

func (q *gq) finish(p *des.Proc) {
	if q.api == CUDA {
		if err := q.rt.StreamSynchronize(p, q.cst); err != nil {
			panic(err)
		}
		return
	}
	q.oq.Finish(p)
}

// Fig1 regenerates the Mandelbrot optimization ladder: sequential, naive
// one-kernel-per-row, the 2-D grid misstep, 32-row batches, overlapped
// transfers with 2 and 4 memory spaces, and the two-GPU configurations.
// Every GPU row carries the utilization columns (kernel_util, copy_util,
// overlap), so the table shows *why* each optimization step pays: batching
// raises kernel utilization, extra memory spaces turn copy time into
// overlap.
func (pr *Prep) Fig1() *stats.Table {
	t := &stats.Table{
		Title: "Fig. 1 — Optimizing Mandelbrot Streaming (exec time, speedup vs sequential)",
		Unit:  "s",
	}
	seq := pr.SeqTime().Seconds()
	t.Add(stats.Row{Label: "Sequential", Value: seq, Speedup: 1})
	for _, api := range []API{CUDA, OpenCL} {
		end, u := pr.RunRowPerKernelUtil(api, false)
		addUtil(t, string(api)+" naive", end.Seconds(), seq, u)
	}
	for _, api := range []API{CUDA, OpenCL} {
		end, u := pr.RunRowPerKernelUtil(api, true)
		addUtil(t, string(api)+" 2D grid", end.Seconds(), seq, u)
	}
	for _, api := range []API{CUDA, OpenCL} {
		end, u := pr.RunBatchedUtil(api, 1, 1)
		addUtil(t, fmt.Sprintf("%s batch %d", api, pr.Cfg.BatchRows), end.Seconds(), seq, u)
	}
	for _, api := range []API{CUDA, OpenCL} {
		end, u := pr.RunBatchedUtil(api, 2, 1)
		addUtil(t, string(api)+" 2x mem spaces", end.Seconds(), seq, u)
	}
	for _, api := range []API{CUDA, OpenCL} {
		end, u := pr.RunBatchedUtil(api, 4, 1)
		addUtil(t, string(api)+" 4x mem spaces", end.Seconds(), seq, u)
	}
	for _, api := range []API{CUDA, OpenCL} {
		end, u := pr.RunBatchedUtil(api, 2, 2)
		addUtil(t, string(api)+" 2 GPUs 2x mem", end.Seconds(), seq, u)
	}
	for _, api := range []API{CUDA, OpenCL} {
		end, u := pr.RunBatchedUtil(api, 4, 2)
		addUtil(t, string(api)+" 2 GPUs 4x mem", end.Seconds(), seq, u)
	}
	return t
}

// RunRowPerKernel models the naive offload: a single CPU thread launches
// one kernel per image row and synchronously copies the row back (pageable
// memory — plain malloc'd buffers). twoD selects the (32,32)-block
// configuration.
func (pr *Prep) RunRowPerKernel(api API, twoD bool) des.Time {
	end, _ := pr.RunRowPerKernelUtil(api, twoD)
	return end
}

// RunRowPerKernelUtil is RunRowPerKernel returning the device utilization
// alongside the makespan.
func (pr *Prep) RunRowPerKernelUtil(api API, twoD bool) (des.Time, Util) {
	p := pr.Cfg.Params
	sim := des.New()
	devs := newDevices(sim, 1, pr.Cfg.Telemetry)
	a := newAPICtx(api, sim, devs)
	spec := pr.Cache.RowKernel()
	grid := gpu.Grid1D(p.Dim, 128)
	if twoD {
		spec = pr.Cache.Row2DKernel()
		grid = mandel.Grid2DForRow(p.Dim)
	}
	sim.Spawn("host", func(proc *des.Proc) {
		q := a.queue(proc, 0)
		dImg := a.malloc(proc, 0, int64(p.Dim))
		hImg := gpu.NewHostBuf(int64(p.Dim)) // pageable: copies block the host
		for i := 0; i < p.Dim; i++ {
			q.launch(proc, spec, grid, i, dImg.raw, pr.iterCycles())
			q.copyD2H(proc, hImg, dImg, int64(p.Dim))
			q.finish(proc)
			proc.Wait(pr.displayCost(1))
		}
	})
	end, err := sim.Run()
	if err != nil {
		panic(err)
	}
	return end, utilOf(devs, end)
}

// RunBatched models the batched variants: nBufs memory spaces round-robin
// over nGPUs devices, one stream per memory space. With a single buffer the
// flow is fully synchronous on pageable memory (the pre-overlap version);
// with more buffers transfers are asynchronous on page-locked memory and
// overlap with the next batch's compute, the §IV-A optimization.
func (pr *Prep) RunBatched(api API, nBufs, nGPUs int) des.Time {
	end, _ := pr.RunBatchedUtil(api, nBufs, nGPUs)
	return end
}

// RunBatchedUtil is RunBatched returning the device utilization alongside
// the makespan.
func (pr *Prep) RunBatchedUtil(api API, nBufs, nGPUs int) (des.Time, Util) {
	p := pr.Cfg.Params
	rows := pr.Cfg.BatchRows
	nBatches := (p.Dim + rows - 1) / rows
	batchBytes := int64(rows * p.Dim)
	pinned := nBufs > 1
	spec := pr.Cache.BatchKernel()

	sim := des.New()
	devs := newDevices(sim, nGPUs, pr.Cfg.Telemetry)
	a := newAPICtx(api, sim, devs)
	sim.Spawn("host", func(proc *des.Proc) {
		type space struct {
			q       *gq
			dImg    *dbuf
			hImg    *gpu.HostBuf
			pending func(*des.Proc)
			rows    int
		}
		spaces := make([]*space, nBufs)
		for s := range spaces {
			dev := s % nGPUs
			sp := &space{q: a.queue(proc, dev), dImg: a.malloc(proc, dev, batchBytes)}
			if pinned {
				sp.hImg = gpu.NewPinnedBuf(batchBytes)
			} else {
				sp.hImg = gpu.NewHostBuf(batchBytes)
			}
			spaces[s] = sp
		}
		retire := func(sp *space) {
			if sp.pending == nil {
				return
			}
			sp.pending(proc)
			sp.pending = nil
			proc.Wait(pr.displayCost(sp.rows))
		}
		for b := 0; b < nBatches; b++ {
			sp := spaces[b%nBufs]
			retire(sp) // free the memory space before reuse
			r := rows
			if (b+1)*rows > p.Dim {
				r = p.Dim - b*rows
			}
			sp.rows = r
			sp.q.launch(proc, spec, gpu.Grid1D(r*p.Dim, 128), b, rows, sp.dImg.raw, pr.iterCycles())
			sp.q.copyD2H(proc, sp.hImg, sp.dImg, int64(r*p.Dim))
			if pinned {
				sp.pending = sp.q.record(proc)
			} else {
				// The pre-overlap version reads back synchronously
				// (cudaMemcpy / CL_TRUE) and displays inline.
				sp.q.finish(proc)
				proc.Wait(pr.displayCost(r))
			}
		}
		for _, sp := range spaces {
			retire(sp)
		}
	})
	end, err := sim.Run()
	if err != nil {
		panic(err)
	}
	return end, utilOf(devs, end)
}
