// Package diag is the fleet diagnostic probe suite — the repo's analogue of
// DCGM's diag run levels over the simulated device pool. Each probe builds a
// private discrete-event simulation around one device (exactly like the
// serving path builds one per batch), runs a known workload, and verifies
// both the functional result (bytes must be right) and the timed result
// (achieved bandwidth must be a sane fraction of the device's own spec, so a
// derated-but-honest part passes while a part underperforming its spec
// fails).
//
// Probes by run level, mirroring `dcgmi diag -r`:
//
//	-r 1  device_query  spec sanity + a malloc/free round trip
//	      vector_add    seeded elementwise kernel, bit-exact verification
//	-r 2  bandwidth     pinned-vs-pageable PCIe sweep in both directions
//	-r 3  bus_grind     sustained double-buffered copy/compute traffic with
//	                    end-to-end data integrity
//
// The suite runs standalone via cmd/streamdiag (text or JSON) and
// periodically inside streamd, where per-device pass/fail feeds the health
// scoreboard's RecordProbe. Fault injection flows through Options.FaultsFor
// with per-probe decorrelated seeds, so a chaos schedule hits probes the
// same deterministic way it hits serving batches.
package diag

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"streamgpu/internal/des"
	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/telemetry"
)

// Run levels.
const (
	LevelQuick  = 1 // device_query + vector_add
	LevelMedium = 2 // + bandwidth sweep
	LevelLong   = 3 // + bus grind
)

// Probe names, in execution order.
const (
	ProbeDeviceQuery = "device_query"
	ProbeVectorAdd   = "vector_add"
	ProbeBandwidth   = "bandwidth"
	ProbeBusGrind    = "bus_grind"
)

// Options configures one diagnostic run over a fleet.
type Options struct {
	// Level is the run level (1..3, default 1). Levels are cumulative.
	Level int
	// Fleet is the per-device spec list (required; gpu.ParseFleet builds it
	// from a -fleet string).
	Fleet []gpu.DeviceSpec
	// FaultsFor, when set, supplies each device's injector config — the
	// same hook the serving path and chaos harness use.
	FaultsFor func(dev int) fault.Config
	// Metrics, when set, receives diag_probe_total counters and the
	// device's own instrumentation. nil is off.
	Metrics *telemetry.Registry
	// VectorLen is the vector_add element count (default 64Ki).
	VectorLen int
	// GrindOps is the bus-grind iteration count (default 24).
	GrindOps int
	// Tolerance is the fraction of the spec bandwidth a transfer must
	// achieve to pass (default 0.5). The spec consulted is the device's
	// own, so honestly derated fleets self-normalize.
	Tolerance float64
}

func (o Options) level() int {
	if o.Level < LevelQuick {
		return LevelQuick
	}
	if o.Level > LevelLong {
		return LevelLong
	}
	return o.Level
}

func (o Options) vectorLen() int {
	if o.VectorLen <= 0 {
		return 64 << 10
	}
	return o.VectorLen
}

func (o Options) grindOps() int {
	if o.GrindOps <= 0 {
		return 24
	}
	return o.GrindOps
}

func (o Options) tolerance() float64 {
	if o.Tolerance <= 0 || o.Tolerance > 1 {
		return 0.5
	}
	return o.Tolerance
}

// ProbeResult is one probe's verdict on one device.
type ProbeResult struct {
	Device         int                `json:"device"`
	Spec           string             `json:"spec"`
	Probe          string             `json:"probe"`
	Level          int                `json:"level"`
	Pass           bool               `json:"pass"`
	Error          string             `json:"error,omitempty"`
	Metrics        map[string]float64 `json:"metrics,omitempty"`
	VirtualSeconds float64            `json:"virtual_seconds"`
}

// Report is one diagnostic run over a fleet.
type Report struct {
	Level   int           `json:"level"`
	Devices int           `json:"devices"`
	Pass    bool          `json:"pass"`
	Results []ProbeResult `json:"results"`
}

// probeDef is one probe's registration.
type probeDef struct {
	name  string
	level int
	body  func(o Options, p *des.Proc, dev *gpu.Device, res *ProbeResult) error
}

// probes is the suite, in execution order per device.
var probes = []probeDef{
	{ProbeDeviceQuery, LevelQuick, probeDeviceQuery},
	{ProbeVectorAdd, LevelQuick, probeVectorAdd},
	{ProbeBandwidth, LevelMedium, probeBandwidth},
	{ProbeBusGrind, LevelLong, probeBusGrind},
}

// ProbesForLevel lists the probe names a run level executes, in order.
func ProbesForLevel(level int) []string {
	var names []string
	for _, pd := range probes {
		if pd.level <= level {
			names = append(names, pd.name)
		}
	}
	return names
}

// Run executes the suite over the fleet: every probe at or below the run
// level, per device, each in its own simulation. Devices are independent —
// one device's failure never stops another's probes — and the result order
// is deterministic (device-major, probe order within).
func Run(opt Options) Report {
	rep := Report{Level: opt.level(), Devices: len(opt.Fleet), Pass: true}
	for devIdx, spec := range opt.Fleet {
		for pi, pd := range probes {
			if pd.level > opt.level() {
				continue
			}
			res := runProbe(opt, devIdx, spec, pi, pd)
			if !res.Pass {
				rep.Pass = false
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep
}

// runProbe executes one probe against one device in a fresh simulation.
func runProbe(opt Options, devIdx int, spec gpu.DeviceSpec, probeIdx int, pd probeDef) ProbeResult {
	res := ProbeResult{
		Device: devIdx, Spec: spec.Name, Probe: pd.name, Level: pd.level,
		Metrics: make(map[string]float64),
	}
	sim := des.New()
	dev := gpu.NewDevice(sim, spec, devIdx)
	dev.SetTelemetry(opt.Metrics)
	if opt.FaultsFor != nil {
		if fc := opt.FaultsFor(devIdx); fc != (fault.Config{}) {
			// Decorrelate per probe while keeping each schedule reproducible.
			fc.Seed ^= int64(uint64(devIdx*len(probes)+probeIdx+1) * 0x9e3779b97f4a7c15)
			dev.SetFaultInjector(fault.New(fc))
		}
	}
	var perr error
	done := false
	sim.Spawn("diag-"+pd.name, func(p *des.Proc) {
		perr = pd.body(opt, p, dev, &res)
		done = true
	})
	end, err := sim.Run()
	res.VirtualSeconds = end.Seconds()
	switch {
	case err != nil:
		res.Error = err.Error()
	case !done:
		res.Error = "probe did not complete"
	case perr != nil:
		res.Error = perr.Error()
	}
	res.Pass = res.Error == ""
	if len(res.Metrics) == 0 {
		res.Metrics = nil // empty and absent must round-trip identically
	}
	verdict := "pass"
	if !res.Pass {
		verdict = "fail"
	}
	opt.Metrics.Counter("diag_probe_total", telemetry.Labels{
		"device": dev.Name(), "probe": pd.name, "result": verdict,
	}).Add(1)
	return res
}

// DevicePass reports whether every probe in the report passed for dev —
// what streamd's background prober feeds the health scoreboard.
func (r Report) DevicePass(dev int) bool {
	pass := true
	for _, res := range r.Results {
		if res.Device == dev && !res.Pass {
			pass = false
		}
	}
	return pass
}

// WriteJSON writes the report as indented JSON — the -json output and the
// golden-test document.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Text renders the human-readable report.
func (r Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "streamdiag: %d device(s), run level %d\n", r.Devices, r.Level)
	passed := 0
	for _, res := range r.Results {
		verdict := "PASS"
		if res.Pass {
			passed++
		} else {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "gpu%-3d %-28s %-13s %s  %8.3fms", res.Device, res.Spec, res.Probe, verdict, res.VirtualSeconds*1e3)
		if res.Error != "" {
			fmt.Fprintf(&b, "  %s", res.Error)
		}
		b.WriteByte('\n')
	}
	overall := "PASS"
	if !r.Pass {
		overall = "FAIL"
	}
	fmt.Fprintf(&b, "overall: %s (%d/%d probes passed)\n", overall, passed, len(r.Results))
	return b.String()
}

// Validate structurally checks a report — the JSON-schema gate behind
// `streamdiag -validate` and the CI diag smoke. It verifies the level is in
// range, the result set is exactly the expected probe matrix for that level
// (every device × every probe, in order), verdicts are consistent with
// error fields, and every number is finite.
func Validate(r Report) error {
	if r.Level < LevelQuick || r.Level > LevelLong {
		return fmt.Errorf("diag: level %d out of range 1..3", r.Level)
	}
	if r.Devices <= 0 {
		return fmt.Errorf("diag: %d devices", r.Devices)
	}
	want := ProbesForLevel(r.Level)
	if len(r.Results) != r.Devices*len(want) {
		return fmt.Errorf("diag: %d results, want %d (%d devices x %d probes)",
			len(r.Results), r.Devices*len(want), r.Devices, len(want))
	}
	allPass := true
	for i, res := range r.Results {
		wantDev, wantProbe := i/len(want), want[i%len(want)]
		if res.Device != wantDev || res.Probe != wantProbe {
			return fmt.Errorf("diag: result %d is device %d probe %q, want device %d probe %q",
				i, res.Device, res.Probe, wantDev, wantProbe)
		}
		if res.Pass != (res.Error == "") {
			return fmt.Errorf("diag: result %d: pass=%v with error %q", i, res.Pass, res.Error)
		}
		if !res.Pass {
			allPass = false
		}
		if res.VirtualSeconds < 0 || math.IsNaN(res.VirtualSeconds) || math.IsInf(res.VirtualSeconds, 0) {
			return fmt.Errorf("diag: result %d: virtual_seconds %v", i, res.VirtualSeconds)
		}
		for k, v := range res.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("diag: result %d: metric %s = %v", i, k, v)
			}
		}
	}
	if r.Pass != allPass {
		return fmt.Errorf("diag: report pass=%v but results say %v", r.Pass, allPass)
	}
	return nil
}
