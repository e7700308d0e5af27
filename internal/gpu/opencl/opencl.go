// Package opencl is an OpenCL-flavoured facade over the device model in
// internal/gpu. It mirrors the host API workflow the paper describes
// (§III-E): discover devices, create kernels, manage buffers and command
// queues, enqueue work, collect results via events.
//
// The facade reproduces the OpenCL sharp edge the paper calls out in §IV-A:
// cl_kernel objects are *not thread-safe* (argument state lives inside the
// kernel object), so each simulated CPU thread — or each in-flight stream
// item — needs its own Kernel instance. Using one Kernel from two processes
// fails the simulation with a descriptive error.
package opencl

import (
	"errors"
	"fmt"
	"time"

	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
)

// ErrNoDevices is returned when no device is visible (CL_DEVICE_NOT_FOUND).
// Callers are expected to treat it as "run the CPU path", not as fatal.
var ErrNoDevices = errors.New("opencl: no devices")

// Context owns devices and buffers, like a cl_context.
type Context struct {
	sim     *des.Sim
	devices []*gpu.Device
}

// CreateContext builds a context over the discovered devices. With no
// devices it returns ErrNoDevices so the caller can fall back to the CPU
// path instead of crashing.
func CreateContext(sim *des.Sim, devices ...*gpu.Device) (*Context, error) {
	if len(devices) == 0 {
		return nil, ErrNoDevices
	}
	return &Context{sim: sim, devices: devices}, nil
}

// Devices lists the context's devices (clGetDeviceIDs analogue).
func (c *Context) Devices() []*gpu.Device { return c.devices }

// CommandQueue is a cl_command_queue: an in-order queue on one device.
type CommandQueue struct {
	s *gpu.Stream
}

// CreateCommandQueue creates an in-order command queue on device id.
func (c *Context) CreateCommandQueue(id int) *CommandQueue {
	return &CommandQueue{s: c.devices[id].NewStream("")}
}

// Buffer is a cl_mem device allocation.
type Buffer struct {
	buf *gpu.Buf
}

// CreateBuffer allocates device memory on device id (clCreateBuffer). A nil
// error mirrors CL_SUCCESS; exhaustion returns gpu.ErrOutOfMemory, the
// failure the paper hit with 10 MB batches.
func (c *Context) CreateBuffer(id int, n int64) (*Buffer, error) {
	b, err := c.devices[id].Malloc(n)
	if err != nil {
		return nil, err
	}
	return &Buffer{buf: b}, nil
}

// Raw exposes the underlying device buffer for kernel argument binding.
func (b *Buffer) Raw() *gpu.Buf { return b.buf }

// Event is a cl_event.
type Event struct {
	ev *des.Event
}

// Kernel is a cl_kernel: a device function plus its *mutable* argument
// state. Argument state is why cl_kernel objects are not thread-safe; the
// facade enforces single-process ownership.
type Kernel struct {
	spec  *gpu.KernelSpec
	args  []any
	owner *des.Proc
}

// CreateKernel instantiates a kernel object from "program source" — here a
// KernelSpec (clCreateKernel analogue). Create one per thread or per stream
// item; sharing across processes is an error.
func CreateKernel(spec *gpu.KernelSpec, nargs int) *Kernel {
	return &Kernel{spec: spec, args: make([]any, nargs)}
}

// claim enforces the single-owner rule.
func (k *Kernel) claim(p *des.Proc) {
	if k.owner == nil {
		k.owner = p
		return
	}
	if k.owner != p {
		panic(fmt.Sprintf("opencl: cl_kernel %q used from process %q but owned by %q: kernel objects are not thread-safe (allocate one per thread)",
			k.spec.Name, p.Name(), k.owner.Name()))
	}
}

// SetArg stores argument i (clSetKernelArg).
func (k *Kernel) SetArg(p *des.Proc, i int, v any) {
	k.claim(p)
	if i < 0 || i >= len(k.args) {
		panic(fmt.Sprintf("opencl: SetArg index %d out of %d", i, len(k.args)))
	}
	k.args[i] = v
}

// CommandOverhead is the host-side cost of submitting one OpenCL command.
// OpenCL's command machinery is heavier than CUDA's stream calls; the
// paper's measurements consistently show CUDA a few percent ahead, and in
// command-heavy workloads (Dedup's per-block kernels) the gap widens.
//
// StagingBwFactor scales pageable-memory transfer times: the runtime
// bounces them through an internal pinned buffer (an extra host memcpy),
// keeping them asynchronous — unlike CUDA — but costing bandwidth.
const CommandOverhead = 40 * time.Microsecond

// StagingBwFactor is the slowdown of staged pageable transfers.
const StagingBwFactor = 1.9

// EnqueueWriteBuffer enqueues host→device; blocking forces the call to wait
// (CL_TRUE). Unlike CUDA's MemcpyAsync, a non-blocking OpenCL transfer
// stays asynchronous even from pageable host memory — the runtime stages
// it — which is why the paper's 2×-memory-space optimization helps the
// OpenCL Dedup but not the CUDA one (§V-B): the bandwidth is pageable
// either way, but only OpenCL keeps the host thread free to overlap.
func (q *CommandQueue) EnqueueWriteBuffer(p *des.Proc, dst *Buffer, dOff int64, src *gpu.HostBuf, sOff, n int64, blocking bool) *Event {
	p.Wait(CommandOverhead)
	var ev *des.Event
	if src.Pinned {
		ev = q.s.CopyH2D(p, dst.buf, dOff, src, sOff, n)
	} else {
		ev = q.s.CopyH2DStaged(p, dst.buf, dOff, src, sOff, n, StagingBwFactor)
	}
	if blocking {
		ev.Wait(p)
	}
	return &Event{ev: ev}
}

// EnqueueReadBuffer enqueues device→host.
func (q *CommandQueue) EnqueueReadBuffer(p *des.Proc, dst *gpu.HostBuf, dOff int64, src *Buffer, sOff, n int64, blocking bool) *Event {
	p.Wait(CommandOverhead)
	var ev *des.Event
	if dst.Pinned {
		ev = q.s.CopyD2H(p, dst, dOff, src.buf, sOff, n)
	} else {
		ev = q.s.CopyD2HStaged(p, dst, dOff, src.buf, sOff, n, StagingBwFactor)
	}
	if blocking {
		ev.Wait(p)
	}
	return &Event{ev: ev}
}

// EnqueueNDRangeKernel launches the kernel over globalSize work-items in
// workgroups of localSize (1-D NDRange, the shape both applications use).
// The kernel's current argument state is snapshotted at enqueue, as the
// OpenCL spec requires.
func (q *CommandQueue) EnqueueNDRangeKernel(p *des.Proc, k *Kernel, globalSize, localSize int) *Event {
	return q.enqueue(p, k, gpu.Grid1D(globalSize, localSize))
}

// EnqueueNDRangeKernel2D launches over a 2-D NDRange: (gx, gy) work-items
// in (lx, ly) work-groups.
func (q *CommandQueue) EnqueueNDRangeKernel2D(p *des.Proc, k *Kernel, gx, gy, lx, ly int) *Event {
	return q.enqueue(p, k, gpu.Grid2D(gx, gy, lx, ly))
}

func (q *CommandQueue) enqueue(p *des.Proc, k *Kernel, g gpu.Grid) *Event {
	k.claim(p)
	for i, a := range k.args {
		if a == nil {
			panic(fmt.Sprintf("opencl: kernel %q launched with unset arg %d", k.spec.Name, i))
		}
	}
	p.Wait(CommandOverhead)
	ev := q.s.Launch(p, k.spec.Bind(k.args...), g)
	return &Event{ev: ev}
}

// EnqueueMarker returns an event that fires when all previously enqueued
// commands complete (clEnqueueMarker).
func (q *CommandQueue) EnqueueMarker(p *des.Proc) *Event {
	return &Event{ev: q.s.Record(p)}
}

// WaitForEvents blocks until every listed event has completed
// (clWaitForEvents).
func WaitForEvents(p *des.Proc, events ...*Event) {
	for _, e := range events {
		e.ev.Wait(p)
	}
}

// Finish blocks until the queue has drained (clFinish).
func (q *CommandQueue) Finish(p *des.Proc) { q.s.Synchronize(p) }
