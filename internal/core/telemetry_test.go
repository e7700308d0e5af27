package core

import (
	"testing"

	"streamgpu/internal/telemetry"
)

// TestRegionTelemetry checks the Telemetry/Trace region options flow through
// the generated ff graph with SPar's stage names.
func TestRegionTelemetry(t *testing.T) {
	const n = 40
	reg := telemetry.New()
	tr := telemetry.NewStreamTracer(4 * n)

	var got int
	err := NewToStream(Telemetry(reg, "region"), Trace(tr)).
		Stage(func(item any, emit func(any)) {
			emit(item.(int) * 3)
		}, Name("triple"), Replicate(4)).
		Stage(func(item any, emit func(any)) {
			got++
		}, Name("count")).
		Run(func(emit func(any)) {
			for i := 0; i < n; i++ {
				emit(i)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("sink saw %d items, want %d", got, n)
	}
	if v := reg.Counter("ff_stage_items_in_total",
		telemetry.Labels{"pipeline": "region", "stage": "triple"}).Value(); v != n {
		t.Errorf("triple items in = %d, want %d", v, n)
	}
	if v := reg.Histogram("ff_stage_service_seconds", nil,
		telemetry.Labels{"pipeline": "region", "stage": "count"}).Count(); v != n {
		t.Errorf("count svc observations = %d, want %d", v, n)
	}
	stagesSeen := map[string]bool{}
	for _, ev := range tr.Events() {
		stagesSeen[ev.Stage] = true
	}
	for _, want := range []string{"source", "triple", "count"} {
		if !stagesSeen[want] {
			t.Errorf("trace has no visits to stage %q", want)
		}
	}
}
