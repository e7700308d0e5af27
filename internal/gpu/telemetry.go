package gpu

import (
	"streamgpu/internal/des"
	"streamgpu/internal/telemetry"
)

// Instruments is one device's metric handle set: resolved from a registry
// once (nine look-ups) and then attached to every Device that plays that
// device — the serving path builds a fresh simulated device per batch but
// keeps one Instruments per device index. Counters and histograms are updated
// from inside simulation processes (the stream engines); the instruments are
// atomic, so a live HTTP scraper never races the simulation. Durations
// observed here are virtual time, rendered as seconds. An Instruments must
// not be attached to two devices that run at the same time.
type Instruments struct {
	reg    *telemetry.Registry
	device string

	h2dBytes *telemetry.Counter
	d2hBytes *telemetry.Counter
	kernels  *telemetry.Counter

	faultTransfer *telemetry.Counter
	faultKernel   *telemetry.Counter

	h2dSec     *telemetry.Histogram
	d2hSec     *telemetry.Histogram
	kernSec    *telemetry.Histogram
	launchWait *telemetry.Histogram

	streams map[string]*telemetry.Gauge // outstanding-ops gauge per stream name
}

// NewInstruments resolves the instrument set of device id in reg. Metrics
// (all labelled {device}):
//
//	gpu_h2d_bytes_total / gpu_d2h_bytes_total   transfer volume
//	gpu_h2d_seconds / gpu_d2h_seconds           per-transfer virtual duration
//	gpu_kernels_launched_total                  kernel count
//	gpu_kernel_seconds                          per-kernel busy time (launch + compute)
//	gpu_kernel_launch_latency_seconds           enqueue-to-execution queueing delay
//	gpu_faults_injected_total                   injector hits ({device, op})
//	gpu_stream_outstanding_ops                  enqueued-but-incomplete ops ({device, stream})
//
// A nil reg yields nil, which SetInstruments takes as "off".
func NewInstruments(reg *telemetry.Registry, id int) *Instruments {
	if reg == nil {
		return nil
	}
	name := deviceName(id)
	lbl := telemetry.Labels{"device": name}
	return &Instruments{
		reg:           reg,
		device:        name,
		h2dBytes:      reg.Counter("gpu_h2d_bytes_total", lbl),
		d2hBytes:      reg.Counter("gpu_d2h_bytes_total", lbl),
		kernels:       reg.Counter("gpu_kernels_launched_total", lbl),
		faultTransfer: reg.Counter("gpu_faults_injected_total", telemetry.Labels{"device": name, "op": "transfer"}),
		faultKernel:   reg.Counter("gpu_faults_injected_total", telemetry.Labels{"device": name, "op": "kernel"}),
		h2dSec:        reg.Histogram("gpu_h2d_seconds", nil, lbl),
		d2hSec:        reg.Histogram("gpu_d2h_seconds", nil, lbl),
		kernSec:       reg.Histogram("gpu_kernel_seconds", nil, lbl),
		launchWait:    reg.Histogram("gpu_kernel_launch_latency_seconds", nil, lbl),
		streams:       make(map[string]*telemetry.Gauge),
	}
}

// streamGauge returns the outstanding-ops gauge of the named stream,
// registering it on first use.
func (t *Instruments) streamGauge(stream string) *telemetry.Gauge {
	g, ok := t.streams[stream]
	if !ok {
		g = t.reg.Gauge("gpu_stream_outstanding_ops", telemetry.Labels{"device": t.device, "stream": stream})
		t.streams[stream] = g
	}
	return g
}

// SetInstruments attaches an instrument set (nil turns instrumentation
// off). Call it before creating streams, so each stream picks up its
// outstanding-ops gauge.
func (d *Device) SetInstruments(t *Instruments) { d.tel = t }

// SetTelemetry resolves and attaches the device's instrument set in reg;
// nil reg turns instrumentation off.
func (d *Device) SetTelemetry(reg *telemetry.Registry) {
	d.SetInstruments(NewInstruments(reg, d.ID))
}

// markBusy records one engine going busy (compute = kernel engine, otherwise
// a PCIe copy engine) and opens an overlap interval when both classes are
// simultaneously held. The simulation is cooperative, so plain fields are
// race-free here.
func (d *Device) markBusy(compute bool) {
	if compute {
		d.computeHeld++
	} else {
		d.copyHeld++
	}
	if d.computeHeld > 0 && d.copyHeld > 0 && !d.overlapOpen {
		d.overlapOpen = true
		d.overlapStart = d.sim.Now()
	}
}

// markIdle records one engine going idle, closing the overlap interval when
// either class fully drains.
func (d *Device) markIdle(compute bool) {
	if compute {
		d.computeHeld--
	} else {
		d.copyHeld--
	}
	if d.overlapOpen && (d.computeHeld == 0 || d.copyHeld == 0) {
		d.overlapOpen = false
		d.stats.OverlapBusy += des.Duration(d.sim.Now() - d.overlapStart)
	}
}
