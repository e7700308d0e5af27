package gpu

import (
	"fmt"

	"streamgpu/internal/des"
	"streamgpu/internal/fault"
	"streamgpu/internal/telemetry"
)

// opKind discriminates stream operations.
type opKind int

const (
	opCopyH2D opKind = iota
	opCopyD2H
	opKernel
	opMarker
)

// opName labels an op kind for fault messages.
func opName(k opKind) string {
	switch k {
	case opCopyH2D:
		return "h2d copy"
	case opCopyD2H:
		return "d2h copy"
	case opKernel:
		return "kernel"
	}
	return "op"
}

// op is one entry in a stream's in-order command queue.
type op struct {
	kind opKind
	done *des.Event
	enq  des.Time // enqueue timestamp, for queueing-delay telemetry

	// copies
	dbuf          *Buf
	hbuf          *HostBuf
	dOff, hOff, n int64
	// exclusive copies also occupy the compute engine: CUDA's staged
	// pageable transfers cannot overlap with kernel execution.
	exclusive bool
	// bwFactor > 0 scales the transfer duration (OpenCL's bounce-buffer
	// staging of pageable memory costs an extra host memcpy).
	bwFactor float64

	// kernels
	kernel *Kernel
	grid   Grid
}

// Stream is an in-order command queue on a device, the analogue of a
// cudaStream_t or cl_command_queue. Operations issued to one stream execute
// sequentially; operations on different streams may overlap subject to the
// device's engines (one compute engine, one copy engine per direction).
type Stream struct {
	dev  *Device
	name string
	ops  *des.Queue[op]
	// outstanding counts enqueued-but-incomplete ops when the device is
	// instrumented (nil otherwise; the telemetry.Gauge is nil-safe anyway).
	outstanding *telemetry.Gauge
}

// NewStream creates a stream served by its own daemon engine process.
func (d *Device) NewStream(name string) *Stream {
	d.streams++
	if name == "" {
		name = fmt.Sprintf("%s.stream%d", d.name, d.streams)
	}
	st := &Stream{
		dev:  d,
		name: name,
		ops:  des.NewQueue[op](d.sim, name+".ops", 1024),
	}
	if d.tel != nil {
		st.outstanding = d.tel.streamGauge(name)
	}
	d.sim.SpawnDaemon(name, st.engine)
	return st
}

// put stamps and enqueues one op, maintaining the outstanding-ops gauge.
func (st *Stream) put(p *des.Proc, o op) {
	o.enq = p.Now()
	st.outstanding.Inc()
	st.ops.Put(p, o)
}

// engine drains the command queue, timing each operation against the
// device's shared engines.
func (st *Stream) engine(p *des.Proc) {
	d := st.dev
	for {
		o, ok := st.ops.Get(p)
		if !ok {
			return
		}
		// Fault injection: real operations (not markers) consult the
		// device's injector. A faulted operation still costs its fixed
		// overhead in virtual time, then completes with an error value; the
		// stream keeps draining, so a dead device fails fast instead of
		// hanging its callers.
		if o.kind != opMarker && d.inj != nil {
			fop := fault.Transfer
			penalty := d.Spec.CopyLatency
			if o.kind == opKernel {
				fop = fault.Kernel
				penalty = d.Spec.KernelLaunchOverhead
			}
			if err := d.checkFault(fop, opName(o.kind)); err != nil {
				if d.tel != nil {
					if fop == fault.Kernel {
						d.tel.faultKernel.Inc()
					} else {
						d.tel.faultTransfer.Inc()
					}
				}
				p.Wait(penalty)
				o.done.Fire(err)
				st.outstanding.Dec()
				continue
			}
		}
		switch o.kind {
		case opCopyH2D:
			if o.exclusive {
				d.compute.Acquire(p, 1)
			}
			d.h2d.Acquire(p, 1)
			d.markBusy(false)
			t := d.transferTime(o.n, true, o.hbuf.Pinned)
			if o.bwFactor > 0 {
				t = des.Duration(float64(t) * o.bwFactor)
			}
			p.Wait(t)
			d.markIdle(false)
			d.h2d.Release(p, 1)
			if o.exclusive {
				d.compute.Release(p, 1)
			}
			copy(o.dbuf.Bytes()[o.dOff:o.dOff+o.n], o.hbuf.Data[o.hOff:o.hOff+o.n])
			d.stats.BytesH2D += o.n
			d.stats.CopyBusyH2D += t
			if d.tel != nil {
				d.tel.h2dBytes.Add(o.n)
				d.tel.h2dSec.Observe(t.Seconds())
			}
			o.done.Fire(nil)
		case opCopyD2H:
			if o.exclusive {
				d.compute.Acquire(p, 1)
			}
			d.d2h.Acquire(p, 1)
			d.markBusy(false)
			t := d.transferTime(o.n, false, o.hbuf.Pinned)
			if o.bwFactor > 0 {
				t = des.Duration(float64(t) * o.bwFactor)
			}
			p.Wait(t)
			d.markIdle(false)
			d.d2h.Release(p, 1)
			if o.exclusive {
				d.compute.Release(p, 1)
			}
			copy(o.hbuf.Data[o.hOff:o.hOff+o.n], o.dbuf.Bytes()[o.dOff:o.dOff+o.n])
			d.stats.BytesD2H += o.n
			d.stats.CopyBusyD2H += t
			if d.tel != nil {
				d.tel.d2hBytes.Add(o.n)
				d.tel.d2hSec.Observe(t.Seconds())
			}
			o.done.Fire(nil)
		case opKernel:
			d.compute.Acquire(p, 1)
			if d.tel != nil {
				d.tel.launchWait.Observe(des.Duration(p.Now() - o.enq).Seconds())
			}
			d.markBusy(true)
			res := d.execute(o.kernel, o.grid)
			busy := d.Spec.KernelLaunchOverhead + res.ComputeTime
			p.Wait(busy)
			d.markIdle(true)
			d.compute.Release(p, 1)
			d.stats.KernelsLaunched++
			d.stats.KernelBusy += busy
			if d.tel != nil {
				d.tel.kernels.Inc()
				d.tel.kernSec.Observe(busy.Seconds())
			}
			o.done.Fire(res)
		case opMarker:
			o.done.Fire(nil)
		}
		st.outstanding.Dec()
	}
}

// nextEvent creates the completion event for an op.
func (st *Stream) nextEvent(kind string) *des.Event {
	return st.dev.sim.NewEvent(st.name + "." + kind)
}

// CopyH2D enqueues a host-to-device copy of n bytes and returns its
// completion event. The call itself is asynchronous; callers modelling
// pageable-memory semantics must wait on the event themselves (the cuda and
// opencl facades do this automatically for non-pinned buffers).
func (st *Stream) CopyH2D(p *des.Proc, dst *Buf, dstOff int64, src *HostBuf, srcOff, n int64) *des.Event {
	return st.copyH2DOpt(p, dst, dstOff, src, srcOff, n, false)
}

// CopyH2DExclusive is CopyH2D for driver-staged transfers that cannot
// overlap with kernel execution (CUDA pageable copies).
func (st *Stream) CopyH2DExclusive(p *des.Proc, dst *Buf, dstOff int64, src *HostBuf, srcOff, n int64) *des.Event {
	return st.copyH2DOpt(p, dst, dstOff, src, srcOff, n, true)
}

// CopyH2DStaged is CopyH2D through a runtime bounce buffer: asynchronous
// regardless of memory kind, but slower by bwFactor (OpenCL's pageable
// staging path).
func (st *Stream) CopyH2DStaged(p *des.Proc, dst *Buf, dstOff int64, src *HostBuf, srcOff, n int64, bwFactor float64) *des.Event {
	checkRange("CopyH2D dst", dstOff, n, dst.Size())
	checkRange("CopyH2D src", srcOff, n, int64(len(src.Data)))
	ev := st.nextEvent("h2d")
	st.put(p, op{kind: opCopyH2D, done: ev, dbuf: dst, hbuf: src, dOff: dstOff, hOff: srcOff, n: n, bwFactor: bwFactor})
	return ev
}

func (st *Stream) copyH2DOpt(p *des.Proc, dst *Buf, dstOff int64, src *HostBuf, srcOff, n int64, excl bool) *des.Event {
	checkRange("CopyH2D dst", dstOff, n, dst.Size())
	checkRange("CopyH2D src", srcOff, n, int64(len(src.Data)))
	ev := st.nextEvent("h2d")
	st.put(p, op{kind: opCopyH2D, done: ev, dbuf: dst, hbuf: src, dOff: dstOff, hOff: srcOff, n: n, exclusive: excl})
	return ev
}

// CopyD2H enqueues a device-to-host copy of n bytes and returns its
// completion event.
func (st *Stream) CopyD2H(p *des.Proc, dst *HostBuf, dstOff int64, src *Buf, srcOff, n int64) *des.Event {
	return st.copyD2HOpt(p, dst, dstOff, src, srcOff, n, false)
}

// CopyD2HExclusive is CopyD2H for driver-staged transfers that cannot
// overlap with kernel execution (CUDA pageable copies).
func (st *Stream) CopyD2HExclusive(p *des.Proc, dst *HostBuf, dstOff int64, src *Buf, srcOff, n int64) *des.Event {
	return st.copyD2HOpt(p, dst, dstOff, src, srcOff, n, true)
}

// CopyD2HStaged is CopyD2H through a runtime bounce buffer (see
// CopyH2DStaged).
func (st *Stream) CopyD2HStaged(p *des.Proc, dst *HostBuf, dstOff int64, src *Buf, srcOff, n int64, bwFactor float64) *des.Event {
	checkRange("CopyD2H src", srcOff, n, src.Size())
	checkRange("CopyD2H dst", dstOff, n, int64(len(dst.Data)))
	ev := st.nextEvent("d2h")
	st.put(p, op{kind: opCopyD2H, done: ev, dbuf: src, hbuf: dst, dOff: srcOff, hOff: dstOff, n: n, bwFactor: bwFactor})
	return ev
}

func (st *Stream) copyD2HOpt(p *des.Proc, dst *HostBuf, dstOff int64, src *Buf, srcOff, n int64, excl bool) *des.Event {
	checkRange("CopyD2H src", srcOff, n, src.Size())
	checkRange("CopyD2H dst", dstOff, n, int64(len(dst.Data)))
	ev := st.nextEvent("d2h")
	st.put(p, op{kind: opCopyD2H, done: ev, dbuf: src, hbuf: dst, dOff: srcOff, hOff: dstOff, n: n, exclusive: excl})
	return ev
}

// Launch enqueues a kernel execution and returns its completion event, whose
// value is the LaunchResult. The calling CPU thread is charged the host-side
// driver overhead.
func (st *Stream) Launch(p *des.Proc, k *Kernel, g Grid) *des.Event {
	if g.Threads() <= 0 {
		panic("gpu: launch with empty grid")
	}
	p.Wait(st.dev.Spec.HostLaunchOverhead)
	ev := st.nextEvent("kernel." + k.Name)
	st.put(p, op{kind: opKernel, done: ev, kernel: k, grid: g})
	return ev
}

// Record enqueues a marker that fires when all previously enqueued
// operations on this stream have completed (cudaEventRecord analogue).
func (st *Stream) Record(p *des.Proc) *des.Event {
	ev := st.nextEvent("marker")
	st.put(p, op{kind: opMarker, done: ev})
	return ev
}

// Synchronize blocks the calling process until every operation enqueued so
// far has completed (cudaStreamSynchronize analogue).
func (st *Stream) Synchronize(p *des.Proc) {
	st.Record(p).Wait(p)
}

func checkRange(what string, off, n, size int64) {
	if off < 0 || n < 0 || off+n > size {
		panic(fmt.Sprintf("gpu: %s out of range: off %d n %d size %d", what, off, n, size))
	}
}
