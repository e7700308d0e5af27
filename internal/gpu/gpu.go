// Package gpu models a CUDA-class GPU accelerator on top of the
// discrete-event kernel in internal/des.
//
// The model is both functional and timed:
//
//   - Functional: kernels are real Go functions executed once per simulated
//     GPU thread against real device-buffer bytes, so results are bit-exact
//     and testable (the Mandelbrot image, SHA-1 digests and LZSS matches
//     computed "on the GPU" are real).
//   - Timed: the virtual duration of every operation comes from a resource
//     model of the device — kernel-launch overhead, per-SM warp-issue
//     throughput with latency hiding, warp divergence (a warp costs as much
//     as its slowest thread), resident-thread/register occupancy limits, and
//     PCIe transfer engines with pinned vs pageable bandwidth.
//
// This reproduces the phenomena the paper's optimization ladder rests on:
// many small kernels underutilize the device (few resident warps per SM
// issue far below peak), batching restores occupancy, and copy/compute
// overlap requires page-locked memory plus multiple buffers.
package gpu

import (
	"fmt"
	"time"

	"streamgpu/internal/des"
	"streamgpu/internal/fault"
)

// DeviceSpec describes the modelled hardware. All Duration fields are
// virtual time.
type DeviceSpec struct {
	Name string

	// Compute geometry.
	SMs                     int   // streaming multiprocessors
	MaxResidentThreadsPerSM int   // resident-thread cap per SM
	WarpSize                int   // threads per warp
	RegistersPerSM          int   // 32-bit registers per SM
	SharedMemPerSM          int64 // bytes of shared memory per SM

	// Issue model: an SM with k resident warps issues
	// min(IssueWarpsPerCycle, k/DepLatencyCycles) warp-instructions per
	// cycle — few warps cannot hide instruction latency.
	ClockHz            float64
	IssueWarpsPerCycle float64
	DepLatencyCycles   float64

	// Overheads and transfers.
	KernelLaunchOverhead des.Duration // per kernel launch, device side
	HostLaunchOverhead   des.Duration // per launch, charged to the calling CPU thread
	GlobalMemBytes       int64
	DeviceMemBps         float64 // on-device copy bandwidth (D2D)
	H2DPinnedBps         float64
	D2HPinnedBps         float64
	H2DPageableBps       float64
	D2HPageableBps       float64
	CopyLatency          des.Duration // per-transfer fixed cost
}

// TitanXPSpec models the NVIDIA Titan XP (compute capability 6.1) used by
// the paper: 30 SMs, 2048 resident threads per SM (61,440 on the board),
// 64K registers and 96 KB shared memory per SM, 12 GB of global memory.
// Issue-model constants are calibrated in internal/bench so the paper's
// Fig. 1 optimization ladder lands in band (see DESIGN.md §5).
func TitanXPSpec() DeviceSpec {
	return DeviceSpec{
		Name:                    "TITAN Xp",
		SMs:                     30,
		MaxResidentThreadsPerSM: 2048,
		WarpSize:                32,
		RegistersPerSM:          64 * 1024,
		SharedMemPerSM:          96 * 1024,
		ClockHz:                 1.58e9,
		IssueWarpsPerCycle:      4,
		DepLatencyCycles:        7,
		KernelLaunchOverhead:    8 * time.Microsecond,
		HostLaunchOverhead:      4 * time.Microsecond,
		GlobalMemBytes:          12 << 30,
		DeviceMemBps:            350e9,
		H2DPinnedBps:            11.5e9,
		D2HPinnedBps:            11.5e9,
		H2DPageableBps:          5.5e9,
		D2HPageableBps:          5.5e9,
		CopyLatency:             9 * time.Microsecond,
	}
}

// MaxResidentThreads reports the board-wide resident thread capacity
// (the paper's 61,440 for the Titan XP).
func (s DeviceSpec) MaxResidentThreads() int {
	return s.SMs * s.MaxResidentThreadsPerSM
}

// Device is one simulated GPU. Create devices with NewDevice; all methods
// that can block take the calling process.
type Device struct {
	Spec DeviceSpec
	ID   int

	sim     *des.Sim
	name    string
	compute *des.Resource // kernel execution engine (serializes kernels)
	h2d     *des.Resource // host-to-device copy engine
	d2h     *des.Resource // device-to-host copy engine

	memUsed int64
	streams int

	// inj, when set, is consulted before every stream operation; injected
	// faults surface as error values on the operation's completion event.
	inj *fault.Injector

	// tel, when set, mirrors device activity into a metrics registry.
	tel *Instruments

	// Copy/compute overlap accounting (see markBusy/markIdle). Plain fields:
	// only simulation processes touch them, and the simulation is cooperative.
	computeHeld  int
	copyHeld     int
	overlapOpen  bool
	overlapStart des.Time

	exec execState

	stats Stats
}

// Stats aggregates device activity for utilization reports.
type Stats struct {
	KernelsLaunched int64
	KernelBusy      des.Duration // total virtual time the compute engine was held
	BytesH2D        int64
	BytesD2H        int64
	CopyBusyH2D     des.Duration
	CopyBusyD2H     des.Duration
	// OverlapBusy is the virtual time during which the compute engine and at
	// least one PCIe copy engine were busy simultaneously — the paper's
	// copy/compute overlap, zero without pinned memory and multiple streams.
	OverlapBusy des.Duration
	PeakMemUsed int64
}

// NewDevice creates a device attached to sim. id distinguishes multiple GPUs.
func NewDevice(sim *des.Sim, spec DeviceSpec, id int) *Device {
	name := deviceName(id)
	return &Device{
		Spec:    spec,
		ID:      id,
		sim:     sim,
		name:    name,
		compute: des.NewResource(sim, name+".compute", 1),
		h2d:     des.NewResource(sim, name+".h2d", 1),
		d2h:     des.NewResource(sim, name+".d2h", 1),
	}
}

// deviceName is device id's instance name, the {device} label of its metrics.
func deviceName(id int) string { return fmt.Sprintf("gpu%d", id) }

// Sim returns the simulation the device belongs to.
func (d *Device) Sim() *des.Sim { return d.sim }

// Name returns the device's instance name ("gpu0", ...).
func (d *Device) Name() string { return d.name }

// Stats returns a copy of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

// MemUsed reports current device-memory allocation.
func (d *Device) MemUsed() int64 { return d.memUsed }

// SetFaultInjector attaches a fault injector: from now on every stream
// operation (copy or kernel) consults it, and injected faults fire the
// operation's completion event with an error value instead of its normal
// result. Use one injector per device so fault schedules stay independent.
func (d *Device) SetFaultInjector(in *fault.Injector) { d.inj = in }

// Lost reports whether an injected fault has permanently killed the device.
func (d *Device) Lost() bool { return d.inj != nil && d.inj.Lost() }

// checkFault consults the injector (if any) for one operation and converts
// its verdict into the error the operation's completion event will carry.
func (d *Device) checkFault(op fault.Op, what string) error {
	if d.inj == nil {
		return nil
	}
	switch d.inj.Check(op) {
	case fault.Transient:
		return fmt.Errorf("%s: %s: %w", d.name, what, fault.ErrTransient)
	case fault.DeviceLost:
		return fmt.Errorf("%s: %s: %w", d.name, what, fault.ErrDeviceLost)
	}
	return nil
}

// WaitErr waits on completion events in order and returns the first error
// value any of them carries (injected faults travel this way). Events that
// fire normal results (nil or LaunchResult) are treated as success.
func WaitErr(p *des.Proc, evs ...*des.Event) error {
	var first error
	for _, ev := range evs {
		if err, ok := ev.Wait(p).(error); ok && first == nil {
			first = err
		}
	}
	return first
}

// Retry runs fn, retrying transient faults with exponential backoff in
// virtual time (50µs, doubling) up to maxRetries times; device loss is
// returned at once. It reports how many retries it took and fn's last error.
func Retry(p *des.Proc, maxRetries int, fn func() error) (retries int, err error) {
	backoff := des.Duration(50 * time.Microsecond)
	for ; ; retries++ {
		err = fn()
		if err == nil || fault.IsDeviceLost(err) || retries >= maxRetries {
			return retries, err
		}
		p.Wait(backoff)
		backoff *= 2
	}
}

// transferTime returns the virtual duration of moving n bytes in the given
// direction with the given host-memory kind.
func (d *Device) transferTime(n int64, h2d bool, pinned bool) des.Duration {
	var bps float64
	switch {
	case h2d && pinned:
		bps = d.Spec.H2DPinnedBps
	case h2d:
		bps = d.Spec.H2DPageableBps
	case pinned:
		bps = d.Spec.D2HPinnedBps
	default:
		bps = d.Spec.D2HPageableBps
	}
	return d.Spec.CopyLatency + des.Duration(float64(n)/bps*1e9)
}
