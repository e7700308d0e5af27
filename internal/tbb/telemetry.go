package tbb

import (
	"strconv"
	"time"

	"streamgpu/internal/telemetry"
)

// schedTelem is the scheduler's instrument set. The scheduler holds it behind
// an atomic pointer so SetTelemetry is safe while workers run; a nil load
// means telemetry is off and the hot paths pay one atomic read.
type schedTelem struct {
	tasks    *telemetry.Counter // tasks executed
	steals   *telemetry.Counter // successful steals
	overflow *telemetry.Counter // spawn fallbacks into the shared inbox
}

// SetTelemetry attaches a metrics registry to the scheduler:
//
//	tbb_tasks_total           tasks executed by the pool
//	tbb_steals_total          successful deque steals
//	tbb_spawn_overflow_total  spawns that overflowed a full deque into the inbox
//	tbb_inbox_depth           shared inbox occupancy (gauge)
//	tbb_tasks_pending         submitted-but-unfinished tasks (gauge)
//	tbb_worker_deque_depth    per-worker deque occupancy (gauge, {worker})
//
// Callable at any time, including while the pool is running; nil reg turns
// instrumentation off (the gauges keep reading the live pool).
func (s *Scheduler) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel.Store(nil)
		return
	}
	t := &schedTelem{
		tasks:    reg.Counter("tbb_tasks_total", nil),
		steals:   reg.Counter("tbb_steals_total", nil),
		overflow: reg.Counter("tbb_spawn_overflow_total", nil),
	}
	reg.GaugeFunc("tbb_inbox_depth", nil, func() float64 { return float64(len(s.inbox)) })
	reg.GaugeFunc("tbb_tasks_pending", nil, func() float64 { return float64(s.pending.Load()) })
	for _, w := range s.workers {
		w := w
		reg.GaugeFunc("tbb_worker_deque_depth",
			telemetry.Labels{"worker": strconv.Itoa(w.id)},
			func() float64 { return float64(w.dq.size()) })
	}
	s.tel.Store(t)
}

// pipeTelem is a tbb pipeline's instrument set. The tokens-in-flight gauge
// lives on the registry only: Run registers it over its own token channel.
type pipeTelem struct {
	items *telemetry.Counter     // items admitted by the input filter
	svc   []*telemetry.Histogram // per-filter service time
}

// SetTelemetry attaches a metrics registry to the pipeline:
//
//	tbb_pipeline_items_total     items admitted by the input filter
//	tbb_filter_service_seconds   per-filter body wall time ({pipeline, filter})
//	tbb_tokens_in_flight         live tokens (gauge, registered per Run)
//
// Filters are labelled f0, f1, ... in chain order. Call before Run.
func (p *Pipeline) SetTelemetry(reg *telemetry.Registry, name string) *Pipeline {
	if reg == nil {
		p.tel = nil
		return p
	}
	t := &pipeTelem{
		items: reg.Counter("tbb_pipeline_items_total", telemetry.Labels{"pipeline": name}),
	}
	for i, f := range p.filters {
		t.svc = append(t.svc, reg.Histogram("tbb_filter_service_seconds", nil,
			telemetry.Labels{"pipeline": name, "filter": "f" + strconv.Itoa(i), "mode": f.mode.String()}))
	}
	p.tel = t
	p.telReg = reg
	p.telName = name
	return p
}

// applyFilter runs one filter body, observing its service time when the
// pipeline is instrumented.
func (p *Pipeline) applyFilter(f *Filter, idx int, v any) any {
	t := p.tel
	if t == nil {
		return f.fn(v)
	}
	t0 := time.Now()
	r := f.fn(v)
	t.svc[idx].ObserveDuration(time.Since(t0))
	return r
}
