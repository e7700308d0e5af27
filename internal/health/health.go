// Package health is the per-device health model behind the serving layer's
// graceful degradation and placement decisions. It started as a fault-rate
// scoreboard — watch every batch outcome, quarantine a device whose windowed
// fault rate trips a threshold, reroute its work to the CPU fallback paths
// (which the dedup and mandel fault-tolerance layers already prove
// bit-identical), re-admit after a run of clean probes — and now combines
// three signals into one per-device score in [0, 1]:
//
//   - the windowed fault rate (batch outcomes and probe outcomes both age
//     through the same ring, so clean probes genuinely repair the rate),
//   - diagnostic probe results (internal/diag's suite, fed via RecordProbe),
//   - observed service time against a per-device baseline (SetBaseline from
//     the spec's ServiceSecondsHint for heterogeneous fleets, self-calibrated
//     otherwise), so a device that merely *is* slow scores healthy while a
//     device that *became* slow bleeds score.
//
// The score drives two decisions with hysteresis between them: quarantine
// enters at or below quarantineScore (or on the fault-rate threshold, or
// immediately on a failed diagnostic probe) and exits only when a clean
// probe streak meets ReadmitAfter AND the score has recovered past
// readmitScore — a boundary-score device cannot flap. Place() spreads
// batches across healthy devices by smooth weighted round-robin on their
// scores, so a degrading device bleeds share before it ever trips
// quarantine.
//
// This is the CrystalGPU lesson applied to the serving stack: a degraded
// accelerator should cost throughput, not correctness or availability, and
// the routing decision should be automatic and reversible. Windows are
// op-counted rather than wall-clocked so every decision is a pure function
// of the outcome sequence — deterministic under the chaos harness's seeded
// fault schedules (idle decay advances only on explicit Tick calls, for the
// same reason).
//
// All methods are safe for concurrent use: every pipeline worker replica
// consults one shared Scoreboard.
package health

import "sync"

// The model's fixed constants. Only the window and probe cadence vary
// between callers (Config); these hold everywhere.
const (
	// svcAlpha is the EWMA weight of one new service-time observation.
	svcAlpha = 0.25
	// probeAlpha is the EWMA weight of one new probe outcome.
	probeAlpha = 0.3
	// faultWeight, probeWeight and serviceWeight blend the three signals
	// into the score; signals with no data yet drop out and the rest
	// renormalize.
	faultWeight   = 0.5
	probeWeight   = 0.25
	serviceWeight = 0.25
	// threshold is the windowed fault rate at or above which a device is
	// quarantined.
	threshold = 0.5
	// quarantineScore quarantines a device whose composite score falls to
	// or below it once MinSamples is met.
	quarantineScore = 0.35
	// readmitScore is the score a quarantined device must recover past
	// before a clean probe streak may re-admit it. Keeping it above
	// quarantineScore is the hysteresis band.
	readmitScore = 0.6
	// decayFactor is how fast an idle device's score drifts back toward
	// neutral per Tick: the per-Tick multiplier on its distance from
	// healthy.
	decayFactor = 0.5
)

// Config sizes a Scoreboard. The zero value tracks one device with the
// documented defaults.
type Config struct {
	// Devices is the number of devices tracked (default 1).
	Devices int
	// Window is the sliding window of recent per-device batch outcomes the
	// fault rate is computed over (default 32).
	Window int
	// MinSamples is the minimum number of outcomes in the window before the
	// rate (or the composite score) can trip quarantine — a single early
	// fault must not condemn a device (default 8).
	MinSamples int
	// ProbeEvery routes every Nth batch of a quarantined device to the
	// device anyway as a health probe; the rest go to the CPU (default 8).
	ProbeEvery int
	// ReadmitAfter is the number of consecutive clean probes required to
	// re-admit a quarantined device (default 3). Re-admission additionally
	// requires the score to have recovered past readmitScore.
	ReadmitAfter int
	// OnTransition, when set, is called (outside the scoreboard lock) after
	// a device is quarantined or re-admitted — the server's metrics hook.
	OnTransition func(dev int, quarantined bool)
}

func (c Config) devices() int {
	if c.Devices <= 0 {
		return 1
	}
	return c.Devices
}

func (c Config) window() int {
	if c.Window <= 0 {
		return 32
	}
	return c.Window
}

func (c Config) minSamples() int {
	if c.MinSamples <= 0 {
		return 8
	}
	if c.MinSamples > c.window() {
		return c.window()
	}
	return c.MinSamples
}

func (c Config) probeEvery() int {
	if c.ProbeEvery <= 0 {
		return 8
	}
	return c.ProbeEvery
}

func (c Config) readmitAfter() int {
	if c.ReadmitAfter <= 0 {
		return 3
	}
	return c.ReadmitAfter
}

// Route is the scoreboard's verdict for one batch.
type Route struct {
	// Device: run the batch on its device. False reroutes it to the CPU
	// fallback path.
	Device bool
	// Probe marks a device-routed batch from a quarantined device — its
	// outcome feeds the re-admission streak as well as the fault window.
	Probe bool
}

// device is one device's tracked state.
type device struct {
	outcomes []bool // ring buffer of recent outcomes, true = fault
	next     int    // ring write index
	filled   int    // live entries in the ring
	faults   int    // faults among live entries

	quarantined bool
	skips       int // batches rerouted since the last probe
	cleanProbes int // consecutive clean probes while quarantined

	probeHealth  float64 // EWMA of probe outcomes, 1 = all passing
	probeSamples int     // probe outcomes observed (0 = signal absent)

	baseline   float64 // expected service seconds per byte (0 = self-calibrate)
	svcRatio   float64 // EWMA of observed/baseline service time
	svcSamples int     // service observations (0 = signal absent)

	opsSinceTick int // activity marker for idle decay
	wrr          int // smooth weighted round-robin accumulator

	totalOps    uint64
	totalFaults uint64
	totalProbes uint64
	probeFails  uint64
	quarantines uint64
	readmits    uint64
}

// faultRate is the windowed fault rate; zero until the window has entries.
func (d *device) faultRate() float64 {
	if d.filled == 0 {
		return 0
	}
	return float64(d.faults) / float64(d.filled)
}

// record pushes one outcome into the sliding window.
func (d *device) record(faulted bool) {
	if d.filled == len(d.outcomes) {
		if d.outcomes[d.next] {
			d.faults--
		}
	} else {
		d.filled++
	}
	d.outcomes[d.next] = faulted
	if faulted {
		d.faults++
	}
	d.next = (d.next + 1) % len(d.outcomes)
}

// decayWindow is idle decay's window step: forgive the oldest fault while
// any remain (the rate falls monotonically toward 0), then shed clean
// entries one per tick so a long-idle device eventually returns to "no
// recent evidence" — presumed healthy — instead of pinning a stale rate.
func (d *device) decayWindow() {
	start := d.next - d.filled + len(d.outcomes)
	if d.faults > 0 {
		for k := 0; k < d.filled; k++ {
			idx := (start + k) % len(d.outcomes)
			if d.outcomes[idx] {
				d.outcomes[idx] = false
				d.faults--
				return
			}
		}
	}
	if d.filled > 0 {
		d.filled--
	}
}

// probeObserve folds one probe outcome into the probe-health EWMA.
func (d *device) probeObserve(pass bool) {
	x := 0.0
	if pass {
		x = 1.0
	}
	if d.probeSamples == 0 {
		d.probeHealth = x
	} else {
		d.probeHealth = probeAlpha*x + (1-probeAlpha)*d.probeHealth
	}
	d.probeSamples++
}

// score blends the signals that have data into [0, 1]; a device nothing has
// been observed about is presumed healthy.
func (d *device) score() float64 {
	num, den := 0.0, 0.0
	if d.filled > 0 {
		num += faultWeight * (1 - d.faultRate())
		den += faultWeight
	}
	if d.probeSamples > 0 {
		num += probeWeight * d.probeHealth
		den += probeWeight
	}
	if d.svcSamples > 0 {
		h := 1.0
		if d.svcRatio > 1 {
			h = 1 / d.svcRatio
		}
		num += serviceWeight * h
		den += serviceWeight
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// reset clears the windowed evidence (after re-admission the device starts
// with a clean slate — its pre-quarantine history must not re-trip it
// instantly). The service baseline and ratio persist: how fast the device is
// has nothing to do with the quarantine episode ending.
func (d *device) reset() {
	for i := range d.outcomes {
		d.outcomes[i] = false
	}
	d.next, d.filled, d.faults = 0, 0, 0
	d.probeHealth, d.probeSamples = 0, 0
}

// Scoreboard tracks per-device health and quarantine state.
type Scoreboard struct {
	cfg       Config
	mu        sync.Mutex
	devs      []*device
	probeScan int // rotating start for Place's quarantined-probe fairness
}

// New builds a scoreboard from cfg.
func New(cfg Config) *Scoreboard {
	s := &Scoreboard{cfg: cfg, devs: make([]*device, cfg.devices())}
	for i := range s.devs {
		s.devs[i] = &device{outcomes: make([]bool, cfg.window())}
	}
	return s
}

// Devices returns the tracked device count.
func (s *Scoreboard) Devices() int { return len(s.devs) }

// dev clamps an out-of-range index to device 0 rather than panicking — the
// router's modulo should make this unreachable, but a scoreboard must never
// take the serving path down.
func (s *Scoreboard) dev(i int) *device {
	if i < 0 || i >= len(s.devs) {
		return s.devs[0]
	}
	return s.devs[i]
}

// devIndex is dev's inverse: the clamped index, for transition callbacks.
func (s *Scoreboard) devIndex(i int) int {
	if i < 0 || i >= len(s.devs) {
		return 0
	}
	return i
}

// Route decides where device i's next batch runs: healthy devices take
// everything; quarantined devices take only every ProbeEvery-th batch, as a
// probe. This is the blind-placement path — Place makes the score-weighted
// decision for the whole pool.
func (s *Scoreboard) Route(i int) Route {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dev(i)
	if !d.quarantined {
		return Route{Device: true}
	}
	d.skips++
	if d.skips >= s.cfg.probeEvery() {
		d.skips = 0
		return Route{Device: true, Probe: true}
	}
	return Route{}
}

// Place picks the device for the next batch across the whole pool.
// Quarantined devices receive only their periodic probe batch (returned
// with Probe set); everything else spreads across healthy devices by smooth
// weighted round-robin on their scores — a device at score 0.5 gets half
// the share of a device at 1.0, so a degrading device bleeds load before it
// ever trips quarantine, and a slow-but-healthy device keeps a share
// proportional to what it can actually serve. dev = -1 with a zero Route
// means nothing can take the batch (every device quarantined, no probe
// due): the caller reroutes to the CPU.
func (s *Scoreboard) Place() (dev int, r Route) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Probe duty first: quarantined devices count placement opportunities
	// as skips and take every ProbeEvery-th as their probe. The scan start
	// rotates so two quarantined devices cannot shadow each other.
	due := -1
	for k := 0; k < len(s.devs); k++ {
		i := (s.probeScan + k) % len(s.devs)
		d := s.devs[i]
		if !d.quarantined {
			continue
		}
		d.skips++
		if due == -1 && d.skips >= s.cfg.probeEvery() {
			due = i
		}
	}
	if due >= 0 {
		s.devs[due].skips = 0
		s.probeScan = (due + 1) % len(s.devs)
		return due, Route{Device: true, Probe: true}
	}
	best, total := -1, 0
	for i, d := range s.devs {
		if d.quarantined {
			continue
		}
		w := 1 + int(d.score()*100)
		d.wrr += w
		total += w
		if best == -1 || d.wrr > s.devs[best].wrr {
			best = i
		}
	}
	if best == -1 {
		return -1, Route{}
	}
	s.devs[best].wrr -= total
	return best, Route{Device: true}
}

// Record feeds the outcome of a device-routed batch back (r as returned by
// Route or Place; rerouted batches are not recorded — the CPU path says
// nothing about the device). faulted marks any fault-injector-surfaced error
// during the batch: an absorbed retry, a stage degraded to the CPU, or
// device loss. Probe outcomes land in the fault window like any other device
// op — that is what lets a healed device's windowed rate actually recover —
// and additionally feed the probe EWMA and the re-admission streak.
func (s *Scoreboard) Record(i int, r Route, faulted bool) {
	if !r.Device {
		return
	}
	var fire func(int, bool)
	s.mu.Lock()
	d := s.dev(i)
	d.totalOps++
	if faulted {
		d.totalFaults++
	}
	d.opsSinceTick++
	d.record(faulted)
	if r.Probe {
		d.totalProbes++
		if faulted {
			d.probeFails++
		}
		d.probeObserve(!faulted)
	}
	switch {
	case d.quarantined && r.Probe:
		if s.probeWhileQuarantinedLocked(d, !faulted) {
			fire = s.cfg.OnTransition
		}
	case !d.quarantined:
		if s.maybeQuarantineLocked(d) {
			fire = s.cfg.OnTransition
		}
	}
	quarantined := d.quarantined
	s.mu.Unlock()
	if fire != nil {
		fire(s.devIndex(i), quarantined)
	}
}

// RecordProbe feeds one out-of-band diagnostic probe result (internal/diag's
// suite, run by streamd's background prober or a test). A failed probe
// quarantines a healthy device immediately — a correctness or bandwidth
// probe failing is decisive evidence, not a sample — and a passing probe
// feeds a quarantined device's re-admission streak exactly like an in-band
// probe batch.
func (s *Scoreboard) RecordProbe(i int, pass bool) {
	var fire func(int, bool)
	s.mu.Lock()
	d := s.dev(i)
	d.totalProbes++
	if !pass {
		d.probeFails++
	}
	d.opsSinceTick++
	d.record(!pass)
	d.probeObserve(pass)
	if d.quarantined {
		if s.probeWhileQuarantinedLocked(d, pass) {
			fire = s.cfg.OnTransition
		}
	} else if !pass {
		d.quarantined = true
		d.quarantines++
		d.cleanProbes = 0
		d.skips = 0
		fire = s.cfg.OnTransition
	}
	quarantined := d.quarantined
	s.mu.Unlock()
	if fire != nil {
		fire(s.devIndex(i), quarantined)
	}
}

// probeWhileQuarantinedLocked folds one probe outcome into a quarantined
// device's re-admission state; it reports whether the device was re-admitted
// (the caller fires OnTransition outside the lock).
func (s *Scoreboard) probeWhileQuarantinedLocked(d *device, pass bool) bool {
	if !pass {
		d.cleanProbes = 0
		return false
	}
	d.cleanProbes++
	if d.cleanProbes >= s.cfg.readmitAfter() && d.score() >= readmitScore {
		d.quarantined = false
		d.readmits++
		d.reset()
		d.opsSinceTick++
		return true
	}
	return false
}

// maybeQuarantineLocked applies the entry rules to a healthy device; it
// reports whether the device was quarantined.
func (s *Scoreboard) maybeQuarantineLocked(d *device) bool {
	if d.filled < s.cfg.minSamples() {
		return false
	}
	if d.faultRate() < threshold && d.score() > quarantineScore {
		return false
	}
	d.quarantined = true
	d.quarantines++
	d.cleanProbes = 0
	d.skips = 0
	return true
}

// SetBaseline declares device i's expected service seconds per byte — the
// spec-derived normalization that keeps a slow-but-healthy device from
// scoring as a degraded fast one on a heterogeneous fleet. Without a
// baseline the first observation self-calibrates.
func (s *Scoreboard) SetBaseline(i int, secondsPerByte float64) {
	if secondsPerByte <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dev(i).baseline = secondsPerByte
}

// ObserveService feeds one batch's observed service time (virtual seconds
// for n payload bytes) into device i's service-health EWMA. A device
// serving at its baseline scores 1 on this signal; one serving k× slower
// scores 1/k.
func (s *Scoreboard) ObserveService(i int, seconds float64, bytes int) {
	if seconds <= 0 || bytes <= 0 {
		return
	}
	var fire func(int, bool)
	s.mu.Lock()
	d := s.dev(i)
	perByte := seconds / float64(bytes)
	if d.baseline <= 0 {
		d.baseline = perByte
	}
	ratio := perByte / d.baseline
	if d.svcSamples == 0 {
		d.svcRatio = ratio
	} else {
		d.svcRatio = svcAlpha*ratio + (1-svcAlpha)*d.svcRatio
	}
	d.svcSamples++
	d.opsSinceTick++
	if !d.quarantined && s.maybeQuarantineLocked(d) {
		fire = s.cfg.OnTransition
	}
	quarantined := d.quarantined
	s.mu.Unlock()
	if fire != nil {
		fire(s.devIndex(i), quarantined)
	}
}

// Tick advances the idle-decay clock: a device that saw no activity since
// the previous Tick sheds its oldest window entry and drifts its probe and
// service EWMAs back toward neutral, so stale evidence (good or bad) fades
// instead of pinning the score forever. Callers decide what a tick means —
// streamd's prober ticks once per probe cycle; tests tick explicitly — which
// keeps decay deterministic.
func (s *Scoreboard) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.devs {
		if d.opsSinceTick == 0 {
			d.decayWindow()
			if d.svcSamples > 0 {
				d.svcRatio = 1 + (d.svcRatio-1)*decayFactor
			}
			if d.probeSamples > 0 {
				d.probeHealth = 1 - (1-d.probeHealth)*decayFactor
			}
		}
		d.opsSinceTick = 0
	}
}

// Score returns device i's current composite health score in [0, 1].
func (s *Scoreboard) Score(i int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dev(i).score()
}

// Quarantined reports device i's current state.
func (s *Scoreboard) Quarantined(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dev(i).quarantined
}

// QuarantinedCount returns how many devices are currently quarantined — the
// serving layer's degradation gauge.
func (s *Scoreboard) QuarantinedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, d := range s.devs {
		if d.quarantined {
			n++
		}
	}
	return n
}

// DeviceStats is one device's lifetime counters.
type DeviceStats struct {
	Quarantined bool
	Score       float64 // current composite health score
	Ops         uint64  // device-routed batches (including probes)
	Faults      uint64  // of which faulted
	Probes      uint64  // probe batches + diagnostic probes
	ProbeFails  uint64  // of which failed
	Quarantines uint64  // times the device was quarantined
	Readmits    uint64  // times it was re-admitted
}

// Snapshot returns per-device lifetime counters, indexed by device.
func (s *Scoreboard) Snapshot() []DeviceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DeviceStats, len(s.devs))
	for i, d := range s.devs {
		out[i] = DeviceStats{
			Quarantined: d.quarantined,
			Score:       d.score(),
			Ops:         d.totalOps,
			Faults:      d.totalFaults,
			Probes:      d.totalProbes,
			ProbeFails:  d.probeFails,
			Quarantines: d.quarantines,
			Readmits:    d.readmits,
		}
	}
	return out
}
