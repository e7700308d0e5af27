package ff

import (
	"fmt"
	"sync/atomic"
	"time"

	"streamgpu/internal/telemetry"
)

// pipeTelem is a pipeline's observability configuration: a metrics registry,
// a pipeline name for labels, optional per-stage names, and an optional
// per-item stream tracer. All of it is optional; a pipeline without telemetry
// pays one nil check per event.
type pipeTelem struct {
	reg        *telemetry.Registry
	name       string
	stageNames []string
	tracer     *telemetry.StreamTracer
}

// stageName labels stage i; unnamed stages get positional names.
func (t *pipeTelem) stageName(i int) string {
	if i < len(t.stageNames) && t.stageNames[i] != "" {
		return t.stageNames[i]
	}
	return fmt.Sprintf("s%d", i)
}

// SetTelemetry attaches a metrics registry to the pipeline. name labels every
// metric ({pipeline=name}); stageNames (optional, positional) label the
// stages, defaulting to s0, s1, ... Metrics emitted per stage:
//
//	ff_stage_items_in_total     items entering the stage (farm: scheduled)
//	ff_stage_items_out_total    items the stage forwarded downstream
//	ff_stage_dropped_total      items discarded by cancellation or failure
//	ff_stage_errors_total       svc errors and panics
//	ff_stage_service_seconds    svc wall-time histogram
//	ff_queue_depth              inter-stage queue occupancy (gauge)
//	ff_farm_queue_depth         farm-internal worker/collector queues (gauge)
//
// Queue gauges are (re)registered on each Run, so a re-run pipeline re-points
// them at its fresh queues.
func (p *Pipeline) SetTelemetry(reg *telemetry.Registry, name string, stageNames ...string) *Pipeline {
	if p.tel == nil {
		p.tel = &pipeTelem{}
	}
	p.tel.reg = reg
	p.tel.name = name
	p.tel.stageNames = stageNames
	return p
}

// SetStreamTracer attaches a per-item tracer: every stage records item
// enter/exit timestamps into tr. Item ids are per-stage completion sequence
// numbers.
func (p *Pipeline) SetStreamTracer(tr *telemetry.StreamTracer) *Pipeline {
	if p.tel == nil {
		p.tel = &pipeTelem{}
	}
	p.tel.tracer = tr
	return p
}

// stageTelem is one stage's instruments. A nil *stageTelem (telemetry off)
// no-ops everywhere, so the service loops carry no conditionals beyond the
// receiver check.
type stageTelem struct {
	reg    *telemetry.Registry
	pipe   string
	name   string
	tracer *telemetry.StreamTracer
	seq    atomic.Int64

	in, out, drops, errs *telemetry.Counter
	svc                  *telemetry.Histogram
}

// newStageTelem builds stage i's instruments, or nil when telemetry is off.
func (p *Pipeline) newStageTelem(i int) *stageTelem {
	t := p.tel
	if t == nil || (t.reg == nil && t.tracer == nil) {
		return nil
	}
	name := t.stageName(i)
	lbl := telemetry.Labels{"pipeline": t.name, "stage": name}
	return &stageTelem{
		reg:    t.reg,
		pipe:   t.name,
		name:   name,
		tracer: t.tracer,
		in:     t.reg.Counter("ff_stage_items_in_total", lbl),
		out:    t.reg.Counter("ff_stage_items_out_total", lbl),
		drops:  t.reg.Counter("ff_stage_dropped_total", lbl),
		errs:   t.reg.Counter("ff_stage_errors_total", lbl),
		svc:    t.reg.Histogram("ff_stage_service_seconds", nil, lbl),
	}
}

// registerQueueGauges points ff_queue_depth at this run's inter-stage queues.
func (p *Pipeline) registerQueueGauges(queues []*SPSC[any]) {
	t := p.tel
	if t == nil || t.reg == nil {
		return
	}
	for i, q := range queues {
		q := q
		t.reg.GaugeFunc("ff_queue_depth",
			telemetry.Labels{"pipeline": t.name, "queue": t.stageName(i) + "->" + t.stageName(i+1)},
			func() float64 { return float64(q.Len()) })
	}
}

// registerFarmQueueGauges points ff_farm_queue_depth at a farm's internal
// emitter->worker (w<i>) and worker->collector (c<i>) queues.
func (tm *stageTelem) registerFarmQueueGauges(wqs, cqs []*SPSC[any]) {
	if tm == nil || tm.reg == nil {
		return
	}
	gauge := func(queue string, q *SPSC[any]) {
		tm.reg.GaugeFunc("ff_farm_queue_depth",
			telemetry.Labels{"pipeline": tm.pipe, "stage": tm.name, "queue": queue},
			func() float64 { return float64(q.Len()) })
	}
	for i := range wqs {
		gauge(fmt.Sprintf("w%d", i), wqs[i])
		gauge(fmt.Sprintf("c%d", i), cqs[i])
	}
}

func (tm *stageTelem) itemIn() {
	if tm == nil {
		return
	}
	tm.in.Inc()
}

func (tm *stageTelem) itemOut() {
	if tm == nil {
		return
	}
	tm.out.Inc()
}

func (tm *stageTelem) dropped(n int64) {
	if tm == nil || n <= 0 {
		return
	}
	tm.drops.Add(n)
}

func (tm *stageTelem) errored() {
	if tm == nil {
		return
	}
	tm.errs.Inc()
}

// svcStart stamps the beginning of one service call; the zero time means
// telemetry is off (time.Now is only paid when a stage is instrumented).
func (tm *stageTelem) svcStart() time.Time {
	if tm == nil {
		return time.Time{}
	}
	return time.Now()
}

// svcEnd records the service time and, when tracing, the item's stage visit.
func (tm *stageTelem) svcEnd(start time.Time) {
	if tm == nil {
		return
	}
	end := time.Now()
	tm.svc.ObserveDuration(end.Sub(start))
	if tm.tracer != nil {
		tm.tracer.Observe(tm.seq.Add(1)-1, tm.name, start, end)
	}
}
