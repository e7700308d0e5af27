package ff

import (
	"strings"
	"testing"

	"streamgpu/internal/telemetry"
)

// TestPipelineTelemetry runs an instrumented source -> farm -> sink pipeline
// and checks the counters, histograms, queue gauges and per-item trace agree
// with the stream.
func TestPipelineTelemetry(t *testing.T) {
	const n = 50
	reg := telemetry.New()
	tr := telemetry.NewStreamTracer(4 * n)

	var got []int
	sink := Sink(func(v any) { got = append(got, v.(int)) })
	double := F(func(v any) any { return v.(int) * 2 })
	p := NewPipeline(
		SliceSource(seq(n)),
		NewFarm([]Node{double, double, double}),
		sink,
	)
	p.SetTelemetry(reg, "test", "source", "double", "sink")
	p.SetStreamTracer(tr)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("sink saw %d items, want %d", len(got), n)
	}

	lblFarm := telemetry.Labels{"pipeline": "test", "stage": "double"}
	if v := reg.Counter("ff_stage_items_in_total", lblFarm).Value(); v != n {
		t.Errorf("farm items in = %d, want %d", v, n)
	}
	if v := reg.Counter("ff_stage_items_out_total", lblFarm).Value(); v != n {
		t.Errorf("farm items out = %d, want %d", v, n)
	}
	if v := reg.Counter("ff_stage_dropped_total", lblFarm).Value(); v != 0 {
		t.Errorf("farm drops = %d, want 0", v)
	}
	if v := reg.Histogram("ff_stage_service_seconds", nil, lblFarm).Count(); v != n {
		t.Errorf("farm svc observations = %d, want %d", v, n)
	}
	lblSink := telemetry.Labels{"pipeline": "test", "stage": "sink"}
	if v := reg.Counter("ff_stage_items_in_total", lblSink).Value(); v != n {
		t.Errorf("sink items in = %d, want %d", v, n)
	}

	// Queue gauges exist for both inter-stage queues and the farm internals.
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	for _, want := range []string{
		`ff_queue_depth{pipeline="test",queue="source->double"}`,
		`ff_queue_depth{pipeline="test",queue="double->sink"}`,
		`ff_farm_queue_depth{pipeline="test",queue="w0",stage="double"}`,
		`ff_farm_queue_depth{pipeline="test",queue="c0",stage="double"}`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %s", want)
		}
	}

	// Per-item trace: n visits to the farm stage.
	visits := 0
	for _, ev := range tr.Events() {
		if ev.Stage == "double" {
			visits++
			if ev.Exit.Before(ev.Enter) {
				t.Fatalf("item %d exits before entering", ev.Item)
			}
		}
	}
	if visits != n {
		t.Errorf("trace has %d farm visits, want %d", visits, n)
	}
}

// TestPipelineTelemetryDrops cancels mid-stream and checks dropped items are
// accounted for: every emitted item is either delivered or counted dropped,
// exactly once, at the stage that discarded it — the source included, which
// discards the item it produced as the cancel landed.
func TestPipelineTelemetryDrops(t *testing.T) {
	id := func(v any) any { return v }
	for _, tc := range []struct {
		name   string
		middle func() any
	}{
		{"node", func() any { return F(id) }},
		{"farm", func() any { return NewFarm([]Node{F(id), F(id)}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			emitted := 0
			var p *Pipeline
			src := Source(func() (any, bool) {
				if emitted >= 100 {
					return nil, false
				}
				emitted++
				if emitted == 10 {
					p.Cancel()
				}
				return emitted, true
			})
			delivered := 0
			p = NewPipeline(src, tc.middle(), Sink(func(any) { delivered++ }))
			p.SetTelemetry(reg, "drops")
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			var droppedTotal int64
			for _, name := range []string{"s0", "s1", "s2"} {
				droppedTotal += reg.Counter("ff_stage_dropped_total",
					telemetry.Labels{"pipeline": "drops", "stage": name}).Value()
			}
			if int64(delivered)+droppedTotal != int64(emitted) {
				t.Errorf("emitted %d, delivered %d, dropped %d: want delivered + dropped == emitted",
					emitted, delivered, droppedTotal)
			}
		})
	}
}

// TestPipelineNoTelemetry pins the zero-cost-when-off contract: an
// uninstrumented pipeline must run with nil stage telems.
func TestPipelineNoTelemetry(t *testing.T) {
	p := NewPipeline(SliceSource(seq(5)), Sink(func(any) {}))
	if tm := p.newStageTelem(0); tm != nil {
		t.Fatal("uninstrumented pipeline built a stage telem")
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}
