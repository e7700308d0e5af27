// Package cuda is a CUDA-runtime-flavoured facade over the device model in
// internal/gpu. It mirrors the API surface and the sharp edges §IV of the
// paper runs into:
//
//   - a per-thread "current device" selected with SetDevice (the paper:
//     "the cudaSetDevice function also has thread-side effects, thus, it
//     must be called after initializing each thread");
//   - MemcpyAsync that is only truly asynchronous for page-locked host
//     memory — with pageable memory the calling thread blocks for the whole
//     transfer, which is why Dedup's realloc'd buffers defeat the 2×-memory
//     overlap optimization;
//   - streams (in-order queues) and events for dependency management.
//
// "Threads" here are simulated CPU threads: des.Proc processes.
package cuda

import (
	"errors"
	"fmt"

	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
)

// ErrNoDevices is returned when no GPU is visible (cudaErrorNoDevice).
// Callers are expected to treat it as "run the CPU path", not as fatal.
var ErrNoDevices = errors.New("cuda: no devices")

// MemcpyKind selects a transfer direction, as in the CUDA runtime.
type MemcpyKind int

const (
	MemcpyHostToDevice MemcpyKind = iota
	MemcpyDeviceToHost
)

// Runtime is the CUDA runtime state for one simulation: the visible devices
// and each simulated CPU thread's current device.
type Runtime struct {
	sim     *des.Sim
	devices []*gpu.Device
	current map[*des.Proc]int
}

// NewRuntime creates a runtime over the given devices (device 0 is the
// default current device for every thread, as in CUDA). With no devices it
// returns ErrNoDevices so the caller can fall back to the CPU path instead
// of crashing.
func NewRuntime(sim *des.Sim, devices ...*gpu.Device) (*Runtime, error) {
	if len(devices) == 0 {
		return nil, ErrNoDevices
	}
	return &Runtime{sim: sim, devices: devices, current: make(map[*des.Proc]int)}, nil
}

// DeviceCount reports the number of visible devices (cudaGetDeviceCount).
func (rt *Runtime) DeviceCount() int { return len(rt.devices) }

// SetDevice selects the current device for the calling thread
// (cudaSetDevice). The selection is per-thread state.
func (rt *Runtime) SetDevice(p *des.Proc, id int) error {
	if id < 0 || id >= len(rt.devices) {
		return fmt.Errorf("cuda: invalid device %d", id)
	}
	rt.current[p] = id
	return nil
}

// GetDevice reports the calling thread's current device (cudaGetDevice).
func (rt *Runtime) GetDevice(p *des.Proc) int { return rt.current[p] }

// dev resolves the calling thread's current device.
func (rt *Runtime) dev(p *des.Proc) *gpu.Device { return rt.devices[rt.current[p]] }

// Device exposes the underlying device by id, for inspection in tests.
func (rt *Runtime) Device(id int) *gpu.Device { return rt.devices[id] }

// Stream is a cudaStream_t analogue bound to the device that created it.
// Completion events of asynchronous work enqueued through the facade are
// retained on the stream, and the first failure among them becomes the
// stream's sticky error — surfaced by the synchronization calls, the way a
// cudaError_t from an async launch surfaces at the next cudaStreamSynchronize.
type Stream struct {
	s       *gpu.Stream
	pending []*des.Event
	err     error
}

// track retains an async operation's completion event until the next sync.
func (st *Stream) track(ev *des.Event) { st.pending = append(st.pending, ev) }

// fail records the stream's first error (sticky, as in CUDA).
func (st *Stream) fail(err error) {
	if st.err == nil && err != nil {
		st.err = err
	}
}

// drain waits out all retained events and returns the sticky error.
func (st *Stream) drain(p *des.Proc) error {
	evs := st.pending
	st.pending = nil
	st.fail(gpu.WaitErr(p, evs...))
	return st.err
}

// StreamCreate creates a stream on the calling thread's current device.
func (rt *Runtime) StreamCreate(p *des.Proc) *Stream {
	return &Stream{s: rt.dev(p).NewStream("")}
}

// Event is a cudaEvent_t analogue.
type Event struct {
	ev *des.Event
}

// Malloc allocates device memory on the current device (cudaMalloc).
func (rt *Runtime) Malloc(p *des.Proc, n int64) (*gpu.Buf, error) {
	return rt.dev(p).Malloc(n)
}

// HostAlloc allocates page-locked host memory (cudaHostAlloc). Transfers
// from pinned memory run at full PCIe bandwidth and may proceed
// asynchronously.
func (rt *Runtime) HostAlloc(n int64) *gpu.HostBuf { return gpu.NewPinnedBuf(n) }

// MemcpyAsync enqueues a transfer on st. With pinned host memory the call
// returns immediately and the copy can overlap with kernels; with pageable
// memory the driver stages the transfer: the calling thread blocks until
// the copy completes and the copy excludes concurrent kernel execution —
// exactly the CUDA behaviour that makes `realloc`-managed buffers (as in
// Dedup) unable to overlap, defeating the 2×-memory-space optimization.
func (rt *Runtime) MemcpyAsync(p *des.Proc, dbuf *gpu.Buf, dOff int64, hbuf *gpu.HostBuf, hOff, n int64, kind MemcpyKind, st *Stream) {
	var ev *des.Event
	switch kind {
	case MemcpyHostToDevice:
		if hbuf.Pinned {
			ev = st.s.CopyH2D(p, dbuf, dOff, hbuf, hOff, n)
		} else {
			ev = st.s.CopyH2DExclusive(p, dbuf, dOff, hbuf, hOff, n)
		}
	case MemcpyDeviceToHost:
		if hbuf.Pinned {
			ev = st.s.CopyD2H(p, hbuf, hOff, dbuf, dOff, n)
		} else {
			ev = st.s.CopyD2HExclusive(p, hbuf, hOff, dbuf, dOff, n)
		}
	default:
		panic(fmt.Sprintf("cuda: bad memcpy kind %d", kind))
	}
	if hbuf.Pinned {
		st.track(ev)
	} else {
		// The staged transfer completes before the call returns; record any
		// injected fault on the stream now.
		st.fail(gpu.WaitErr(p, ev))
	}
}

// LaunchKernel launches spec<<<grid>>>(args...) on st (cudaLaunchKernel).
// Launch failures are asynchronous; they surface at the next sync call.
func (rt *Runtime) LaunchKernel(p *des.Proc, spec *gpu.KernelSpec, g gpu.Grid, st *Stream, args ...any) {
	st.track(st.s.Launch(p, spec.Bind(args...), g))
}

// EventRecord records an event after all work currently enqueued on st.
func (rt *Runtime) EventRecord(p *des.Proc, st *Stream) *Event {
	return &Event{ev: st.s.Record(p)}
}

// EventSynchronize blocks the calling thread until e has occurred
// (cudaEventSynchronize) and returns the event's outcome.
func (rt *Runtime) EventSynchronize(p *des.Proc, e *Event) error {
	return gpu.WaitErr(p, e.ev)
}

// StreamSynchronize blocks until all work enqueued on st has completed
// (cudaStreamSynchronize) and returns the stream's sticky error: the first
// failure among the async operations synchronized, including injected
// faults that would otherwise be lost with their completion events.
func (rt *Runtime) StreamSynchronize(p *des.Proc, st *Stream) error {
	st.s.Synchronize(p)
	return st.drain(p)
}
