package mandel

import (
	"context"

	"streamgpu/internal/core"
	"streamgpu/internal/ff"
	"streamgpu/internal/tbb"
	"streamgpu/internal/telemetry"
)

// Observer bundles the optional instrumentation of a streaming run: a
// metrics registry for per-stage counters, service-time histograms and
// queue-depth gauges, and a per-item stream tracer. The zero value observes
// nothing and costs nothing; the uninstrumented entry points (RunSPar,
// RunFF, RunTBB) pass it.
type Observer struct {
	Metrics *telemetry.Registry
	Trace   *telemetry.StreamTracer
}

// RunSParObserved is RunSParContext with instrumentation: the SPar region's
// stages surface as {pipeline="mandel", stage=source|compute|show} metrics.
func RunSParObserved(ctx context.Context, p Params, workers int, obs Observer) (*Image, error) {
	im := NewImage(p.Dim)
	ts := core.NewToStream(core.Input("dim", "init_a", "init_b", "step", "niter"),
		core.Telemetry(obs.Metrics, "mandel"), core.Trace(obs.Trace)).
		Stage(func(item any, emit func(any)) {
			r := item.(*Row)
			p.ComputeRow(r.I, r.Img)
			emit(r)
		}, core.Replicate(workers), core.Name("compute"),
			core.Input("dim", "init_a", "init_b", "step", "niter"), core.Output("img")).
		Stage(func(item any, emit func(any)) {
			r := item.(*Row)
			im.SetRow(r.I, r.Img)
		}, core.Name("show"), core.Input("img"))
	err := ts.RunContext(ctx, func(emit func(any)) {
		for i := 0; i < p.Dim; i++ {
			emit(&Row{I: i, Img: make([]byte, p.Dim)})
		}
	})
	return im, err
}

// RunFFObserved is RunFF with instrumentation, labelled
// {pipeline="mandel-ff", stage=source|compute|show}.
func RunFFObserved(p Params, workers int, obs Observer) (*Image, error) {
	im := NewImage(p.Dim)
	i := 0
	src := ff.Source(func() (any, bool) {
		if i >= p.Dim {
			return nil, false
		}
		r := &Row{I: i, Img: make([]byte, p.Dim)}
		i++
		return r, true
	})
	ws := make([]ff.Node, workers)
	for w := range ws {
		ws[w] = ff.F(func(task any) any {
			r := task.(*Row)
			p.ComputeRow(r.I, r.Img)
			return r
		})
	}
	sink := ff.Sink(func(task any) {
		r := task.(*Row)
		im.SetRow(r.I, r.Img)
	})
	pipe := ff.NewPipeline(src, ff.NewFarm(ws), sink)
	if obs.Metrics != nil {
		pipe.SetTelemetry(obs.Metrics, "mandel-ff", "source", "compute", "show")
	}
	if obs.Trace != nil {
		pipe.SetStreamTracer(obs.Trace)
	}
	err := pipe.Run()
	return im, err
}

// RunTBBObserved is RunTBB with instrumentation, labelled
// {pipeline="mandel-tbb"}. The TBB model traces at filter granularity only
// (tbb_filter_service_seconds); per-item tracing is a pipeline-runtime
// concept the TBB facade does not expose.
func RunTBBObserved(p Params, sched *tbb.Scheduler, maxTokens int, obs Observer) *Image {
	im := NewImage(p.Dim)
	i := 0
	pipe := tbb.NewPipeline(
		tbb.NewFilter(tbb.SerialInOrder, func(any) any {
			if i >= p.Dim {
				return nil
			}
			r := &Row{I: i, Img: make([]byte, p.Dim)}
			i++
			return r
		}),
		tbb.NewFilter(tbb.Parallel, func(v any) any {
			r := v.(*Row)
			p.ComputeRow(r.I, r.Img)
			return r
		}),
		tbb.NewFilter(tbb.SerialInOrder, func(v any) any {
			r := v.(*Row)
			im.SetRow(r.I, r.Img)
			return r
		}),
	)
	if obs.Metrics != nil {
		pipe.SetTelemetry(obs.Metrics, "mandel-tbb")
	}
	pipe.Run(sched, maxTokens)
	return im
}
