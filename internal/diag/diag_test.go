package diag

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenOptions is the fixed scenario behind the golden file: a
// heterogeneous three-device fleet at the full run level, with device 2
// under a deterministic fault schedule so the golden captures both verdicts.
func goldenOptions() Options {
	fleet, err := gpu.ParseFleet("titanxp,titanxp@clock=0.7@gen=2,titanxp@sms=20")
	if err != nil {
		panic(err)
	}
	return Options{
		Level:     LevelLong,
		Fleet:     fleet,
		VectorLen: 4 << 10,
		GrindOps:  8,
		FaultsFor: func(dev int) fault.Config {
			if dev != 2 {
				return fault.Config{} // no injector on the clean devices
			}
			return fault.Config{Seed: 11, TransferRate: 0.6, KernelRate: 0.6}
		},
	}
}

// TestRunGoldenJSON pins the full -json document for a fixed heterogeneous
// fleet with one faulted device. The simulation is deterministic, so any
// diff — field renames, metric changes, verdict flips, timing drift — is a
// deliberate decision made by regenerating with -update.
func TestRunGoldenJSON(t *testing.T) {
	rep := Run(goldenOptions())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/diag -run GoldenJSON -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("golden mismatch (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// The golden document must itself satisfy the schema gate, and survive a
	// decode round trip.
	var decoded Report
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := Validate(decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, decoded) {
		t.Fatal("report does not survive a JSON round trip")
	}
}

// TestRunVerdicts checks the scenario semantics behind the golden: clean
// devices pass everything, the faulted device fails at least one probe, and
// failures carry errors while passes do not.
func TestRunVerdicts(t *testing.T) {
	rep := Run(goldenOptions())
	if rep.Pass {
		t.Fatal("report passed with a device at 60% fault rates")
	}
	if !rep.DevicePass(0) || !rep.DevicePass(1) {
		t.Fatalf("clean device failed: %+v", rep.Results)
	}
	if rep.DevicePass(2) {
		t.Fatal("faulted device 2 passed the full suite")
	}
	for _, res := range rep.Results {
		if res.Pass && res.Error != "" {
			t.Fatalf("passing probe with error: %+v", res)
		}
		if !res.Pass && res.Error == "" {
			t.Fatalf("failing probe without error: %+v", res)
		}
	}
}

// TestRunCleanFleetPasses: without fault injection every probe on every
// heterogeneous device passes, including honestly-derated specs (the
// bandwidth bar is the device's own spec).
func TestRunCleanFleetPasses(t *testing.T) {
	fleet, err := gpu.ParseFleet("titanxp,titanxp@clock=0.5,titanxp@gen=1@mem=4")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	rep := Run(Options{Level: LevelLong, Fleet: fleet, VectorLen: 2 << 10, GrindOps: 6, Metrics: reg})
	if !rep.Pass {
		t.Fatalf("clean heterogeneous fleet failed:\n%s", rep.Text())
	}
	if err := Validate(rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text(), "overall: PASS") {
		t.Fatalf("text report missing overall verdict:\n%s", rep.Text())
	}
	// Every probe must have emitted its counter.
	var total float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != "diag_probe_total" {
			continue
		}
		for _, s := range m.Series {
			if s.Labels["result"] != "pass" {
				t.Fatalf("unexpected fail counter: %+v", s)
			}
			total += s.Value
		}
	}
	if want := float64(len(rep.Results)); total != want {
		t.Fatalf("diag_probe_total sums to %v, want %v", total, want)
	}
}

// TestProbesForLevel pins the cumulative run-level contract.
func TestProbesForLevel(t *testing.T) {
	cases := map[int][]string{
		LevelQuick:  {ProbeDeviceQuery, ProbeVectorAdd},
		LevelMedium: {ProbeDeviceQuery, ProbeVectorAdd, ProbeBandwidth},
		LevelLong:   {ProbeDeviceQuery, ProbeVectorAdd, ProbeBandwidth, ProbeBusGrind},
	}
	for level, want := range cases {
		if got := ProbesForLevel(level); !reflect.DeepEqual(got, want) {
			t.Errorf("level %d: got %v, want %v", level, got, want)
		}
	}
}

// TestValidateRejects corrupts a valid report one field at a time; every
// corruption must be caught.
func TestValidateRejects(t *testing.T) {
	fleet, _ := gpu.ParseFleet("titanxp*2")
	base := Run(Options{Level: LevelQuick, Fleet: fleet, VectorLen: 1 << 10})
	if err := Validate(base); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		corrupt func(r *Report)
	}{
		{"level zero", func(r *Report) { r.Level = 0 }},
		{"level four", func(r *Report) { r.Level = 4 }},
		{"no devices", func(r *Report) { r.Devices = 0 }},
		{"missing result", func(r *Report) { r.Results = r.Results[:len(r.Results)-1] }},
		{"reordered results", func(r *Report) { r.Results[0], r.Results[1] = r.Results[1], r.Results[0] }},
		{"wrong device id", func(r *Report) { r.Results[0].Device = 9 }},
		{"pass with error", func(r *Report) { r.Results[0].Error = "boom" }},
		{"fail without error", func(r *Report) { r.Results[0].Pass = false }},
		{"negative time", func(r *Report) { r.Results[0].VirtualSeconds = -1 }},
		{"nan metric", func(r *Report) { r.Results[0].Metrics["sms"] = nan() }},
		{"pass disagreement", func(r *Report) { r.Pass = false }},
	}
	for _, tc := range cases {
		r := base
		r.Results = append([]ProbeResult(nil), base.Results...)
		for i := range r.Results {
			m := make(map[string]float64, len(base.Results[i].Metrics))
			for k, v := range base.Results[i].Metrics {
				m[k] = v
			}
			r.Results[i].Metrics = m
		}
		tc.corrupt(&r)
		if err := Validate(r); err == nil {
			t.Errorf("%s: corruption not caught", tc.name)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}
