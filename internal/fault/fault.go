// Package fault provides a deterministic, seeded fault injector for the
// simulated GPU layer.
//
// Real multi-GPU stream systems see three broad failure classes: transient
// transfer errors (PCIe hiccups, ECC retries), kernel faults (launch
// failures, aborted grids), and whole-device loss (driver reset, XID
// errors). The injector reproduces all three inside the discrete-event
// simulation: every device operation consults Check, which draws from a
// seeded PRNG, so a given seed yields the exact same fault sequence at the
// exact same virtual times on every run. That makes recovery-policy tests
// (retry, failover, CPU degradation) bit-reproducible.
//
// The des scheduler is cooperative and single-threaded, so the consultation
// order — hence the fault schedule — is a pure function of the seed and the
// workload. The injector needs and uses no locking.
package fault

import (
	"errors"
	"math/rand"
)

// ErrTransient marks a retryable fault: the operation failed but the device
// survives, and re-issuing the operation may succeed.
var ErrTransient = errors.New("transient device fault")

// ErrDeviceLost marks a permanent fault: the device is gone and every
// subsequent operation on it fails. Recovery means failing over to another
// device or degrading to the CPU path.
var ErrDeviceLost = errors.New("device lost")

// IsTransient reports whether err is (or wraps) a transient injected fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// IsDeviceLost reports whether err is (or wraps) a device-loss fault.
func IsDeviceLost(err error) bool { return errors.Is(err, ErrDeviceLost) }

// Op classifies the device operation consulting the injector.
type Op int

const (
	// Transfer is any H2D/D2H copy.
	Transfer Op = iota
	// Kernel is a kernel execution.
	Kernel
)

// Class is the injector's verdict for one operation.
type Class int

const (
	// None: the operation proceeds normally.
	None Class = iota
	// Transient: the operation fails; a retry may succeed.
	Transient
	// DeviceLost: the device dies; this and all later operations fail.
	DeviceLost
)

// Config sets the fault rates. All rates are per-operation probabilities in
// [0, 1]; zero-value Config injects nothing.
type Config struct {
	// Seed drives the PRNG; the same seed reproduces the same fault
	// schedule for the same workload.
	Seed int64
	// TransferRate is the probability that a copy fails transiently.
	TransferRate float64
	// KernelRate is the probability that a kernel fails transiently.
	KernelRate float64
	// DeviceLossRate is the probability that any operation takes the whole
	// device down permanently.
	DeviceLossRate float64
	// KillAfterOps, when > 0, deterministically kills the device on the
	// Nth checked operation regardless of the rates — the knob for
	// "one GPU dies mid-run" failover tests.
	KillAfterOps int
}

// Stats counts what the injector has done, for tests asserting that faults
// actually fired.
type Stats struct {
	Checked    int  // operations that consulted the injector
	Transient  int  // transient faults injected
	DeviceLost bool // whether the device has been killed
}

// Injector is one device's fault source. Create one per device with New;
// share nothing between devices so their fault schedules are independent.
type Injector struct {
	cfg   Config
	rng   *rand.Rand
	stats Stats
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Check classifies the next operation of kind op. Once the device is lost,
// every call returns DeviceLost.
func (in *Injector) Check(op Op) Class {
	in.stats.Checked++
	if in.stats.DeviceLost {
		return DeviceLost
	}
	if in.cfg.KillAfterOps > 0 && in.stats.Checked >= in.cfg.KillAfterOps {
		in.stats.DeviceLost = true
		return DeviceLost
	}
	// One draw per operation: the cumulative-rate split keeps the verdict
	// reproducible even when rates change between runs with the same seed.
	u := in.rng.Float64()
	if u < in.cfg.DeviceLossRate {
		in.stats.DeviceLost = true
		return DeviceLost
	}
	rate := in.cfg.TransferRate
	if op == Kernel {
		rate = in.cfg.KernelRate
	}
	if u < in.cfg.DeviceLossRate+rate {
		in.stats.Transient++
		return Transient
	}
	return None
}

// Lost reports whether the device has been killed.
func (in *Injector) Lost() bool { return in.stats.DeviceLost }

// Stats returns a copy of the injection counters.
func (in *Injector) Stats() Stats { return in.stats }
