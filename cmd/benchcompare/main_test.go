package main

import (
	"testing"

	"streamgpu/internal/bench"
)

// TestQuartiles holds quartiles to Python's statistics.quantiles(xs, n=4)
// (exclusive method); Python rejects a single value, for which all three
// are the value itself.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 4}, 0.25, 2.5, 4.75},
		{[]float64{3, 1, 4, 1.5, 9}, 1.25, 3, 6.5},
		{[]float64{2, 7, 1, 8, 2.5, 8.5, 10, 3, 6.5, 4}, 2.375, 5.25, 8.125},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestCompare(t *testing.T) {
	throughput := metricDef{Name: "dedup_hash", Unit: "MB/s", Better: "higher", Bound: hostBound}
	allocs := metricDef{Name: "dedup_hash.allocs_per_op", Unit: allocsUnit, Better: "lower"}
	latency := metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		name           string
		m              metricDef
		parent, change []float64
		won, lost      int
		verdict        string
		ratio          float64
	}{
		{"ties count for neither", throughput, []float64{1, 2, 3, 4}, []float64{1, 3, 2, 4}, 1, 1, "ok", 1},
		{"throughput just inside", throughput, []float64{100, 100, 100}, []float64{92.1, 92.1, 92.1}, 0, 3, "ok", 0.921},
		{"throughput just outside", throughput, []float64{100, 100, 100}, []float64{91.9, 91.9, 91.9}, 0, 3, "worse", 0.919},
		{"outside, lost 4 pairs of 5", throughput, []float64{100, 100, 100, 100, 100}, []float64{90, 90, 90, 90, 101}, 1, 4, "worse", 0.9},
		{"outside, lost 3 pairs of 5", throughput, []float64{100, 100, 100, 100, 100}, []float64{90, 90, 90, 101, 101}, 2, 3, "ok", 0.9},
		{"throughput faster", throughput, []float64{100, 100}, []float64{150, 90}, 1, 1, "ok", 1.2},
		{"lower is better, inside", latency, []float64{4, 4}, []float64{4.9, 4.9}, 0, 2, "ok", 1.225},
		{"lower is better, outside", latency, []float64{4, 4}, []float64{5.1, 5.1}, 0, 2, "worse", 1.275},
		{"allocations equal", allocs, []float64{0, 0, 0}, []float64{0, 0, 0}, 0, 0, "ok", 0},
		{"one allocation more", allocs, []float64{153, 153, 153}, []float64{154, 154, 154}, 0, 3, "worse", 154.0 / 153},
		{"one allocation every other call", allocs, []float64{0, 0, 0, 0}, []float64{0.5, 0.5, 0.5, 0.5}, 0, 4, "worse", 0},
		{"a stray count in one run", allocs, []float64{153, 153, 153}, []float64{153, 153.125, 153}, 0, 1, "ok", 1},
		{"allocations fewer", allocs, []float64{1, 1}, []float64{0, 0}, 2, 0, "ok", 0},
		{"uncounted row exempt", allocs, []float64{-1, -1}, []float64{-1, -1}, 0, 0, "ungated: not counted", 1},
		{"row on the parent only", throughput, []float64{100, 100}, nil, 0, 0, "ungated: one side only", 0},
		{"row on the change only", allocs, nil, []float64{3, 3}, 0, 0, "ungated: one side only", 0},
	} {
		mc := compare(c.m, c.parent, c.change)
		if mc.Won != c.won || mc.Lost != c.lost || mc.Verdict != c.verdict {
			t.Errorf("%s: won %d lost %d verdict %q; want %d, %d, %q", c.name, mc.Won, mc.Lost, mc.Verdict, c.won, c.lost, c.verdict)
		}
		if d := mc.Ratio - c.ratio; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s: ratio %v, want %v", c.name, mc.Ratio, c.ratio)
		}
		if mc.Bound != c.m.Bound {
			t.Errorf("%s: bound %v, want %v", c.name, mc.Bound, c.m.Bound)
		}
	}
}

// TestParseHostOlderReport reads a report in the layout revisions before
// the paired gate wrote, with a calib score and hand-written before fields,
// and turns it into metrics next to a report that lacks one of its rows.
func TestParseHostOlderReport(t *testing.T) {
	old := []byte(`{
  "schema": "streamgpu-hostbench/v1",
  "gomaxprocs": 1,
  "calib": 322.0267713356386,
  "results": [
    {"name": "dedup_seq", "unit": "MB/s", "value": 80.49, "allocs_per_op": -1, "before": 54, "before_allocs_per_op": -1},
    {"name": "gpu_process_batch", "unit": "MB/s", "value": 35.25, "allocs_per_op": 153, "before": 28.21, "before_allocs_per_op": 153}
  ]
}`)
	parent, err := parseHost(old)
	if err != nil {
		t.Fatal(err)
	}
	want := []bench.HostResult{
		{Name: "dedup_seq", Unit: "MB/s", Value: 80.49, AllocsPerOp: -1},
		{Name: "gpu_process_batch", Unit: "MB/s", Value: 35.25, AllocsPerOp: 153},
	}
	if len(parent.Results) != len(want) {
		t.Fatalf("parsed %d results, want %d", len(parent.Results), len(want))
	}
	for i, r := range parent.Results {
		if r != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, r, want[i])
		}
	}
	if _, err := parseHost([]byte("panic: boom")); err == nil {
		t.Error("parseHost accepted a report that is not JSON")
	}

	change := bench.HostReport{Results: []bench.HostResult{
		{Name: "gpu_process_batch", Unit: "MB/s", Value: 36, AllocsPerOp: 153},
	}}
	verdicts := map[string]string{}
	for _, m := range hostMetrics([]bench.HostReport{parent}, []bench.HostReport{change}) {
		verdicts[m.Name] = m.Verdict
	}
	for name, v := range map[string]string{
		"gpu_process_batch":               "ok",
		"gpu_process_batch.allocs_per_op": "ok",
		"dedup_seq":                       "ungated: one side only",
		"dedup_seq.allocs_per_op":         "ungated: one side only",
	} {
		if verdicts[name] != v {
			t.Errorf("%s: verdict %q, want %q", name, verdicts[name], v)
		}
	}
	if len(verdicts) != 4 {
		t.Errorf("got metrics %v, want two per row", verdicts)
	}
}
