// Package core implements the paper's primary contribution surface: a
// SPar-style high-level stream-parallelism DSL.
//
// SPar [Griebler et al.] expresses stream parallelism with five C++11
// attributes — ToStream, Stage, Input, Output, Replicate — and a
// source-to-source compiler that turns annotated loops into FastFlow
// pipelines and farms. Go has no attributes, so this package provides the
// same five concepts as a declarative builder; Run applies SPar's
// transformation rules and executes the result on the FastFlow-style
// runtime in internal/ff:
//
//	pipe := core.NewToStream(core.Input("dim", "niter")).
//		Stage(computeRow, core.Replicate(10), core.Input("row"), core.Output("img")).
//		Stage(showLine, core.Input("img"))
//	err := pipe.Run(source)
//
// The textual annotation form is parsed by internal/spanno, which produces
// the same Graph this package builds programmatically.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"streamgpu/internal/ff"
	"streamgpu/internal/telemetry"
)

// StageFunc is a stage body: consume one stream item, emit zero or more.
type StageFunc func(item any, emit func(any))

// StageFuncErr is a stage body that can fail: a non-nil return cancels the
// stream, drains the remaining stages, and surfaces from Run. Use it for
// stages doing I/O or device work, where errors are expected rather than
// exceptional.
type StageFuncErr func(item any, emit func(any)) error

// StageDef is one annotated Stage.
type StageDef struct {
	Name      string
	Replicate int
	Inputs    []string
	Outputs   []string
	Offload   bool
	// body builds one replica's stage body; Run calls it once per replica.
	body func() StageFuncErr
}

// Option configures a ToStream region or a Stage (the auxiliary
// attributes).
type Option func(*options)

type options struct {
	name        string
	replicate   int
	inputs      []string
	outputs     []string
	offload     bool
	metrics     *telemetry.Registry
	metricsName string
	trace       *telemetry.StreamTracer
}

// Replicate sets the stage's parallelism degree (the spar::Replicate
// attribute). Only valid on stages without shared mutable state.
func Replicate(n int) Option { return func(o *options) { o.replicate = n } }

// Input declares the variables a region or stage consumes (spar::Input).
// Used for graph validation: a stage may only consume what flows to it.
func Input(vars ...string) Option {
	return func(o *options) { o.inputs = append(o.inputs, vars...) }
}

// Output declares the variables a region or stage produces (spar::Output).
func Output(vars ...string) Option {
	return func(o *options) { o.outputs = append(o.outputs, vars...) }
}

// Name labels a stage for graphs and error messages.
func Name(s string) Option { return func(o *options) { o.name = s } }

// Offload marks the stage as accelerator-eligible (spar::Pure), recorded in
// the activity graph. Execution stays on the host runtime; the flag is the
// hand-off point for the paper's future-work GPU code generation.
func Offload() Option { return func(o *options) { o.offload = true } }

// Telemetry attaches a metrics registry to the region: the generated graph
// reports per-stage item counters, service-time histograms and queue-depth
// gauges into reg, labelled {pipeline=name, stage=<source|stage name>}. A
// region option; nil reg disables metrics.
func Telemetry(reg *telemetry.Registry, name string) Option {
	return func(o *options) {
		o.metrics = reg
		o.metricsName = name
	}
}

// Trace attaches a per-item stream tracer to the region: every stage of the
// generated graph records item enter/exit timestamps into tr. A region
// option; nil tr disables tracing.
func Trace(tr *telemetry.StreamTracer) Option {
	return func(o *options) { o.trace = tr }
}

// ToStream is an annotated streaming region under construction: the
// spar::ToStream attribute plus its chain of Stages.
type ToStream struct {
	inputs      []string
	stages      []*StageDef
	metrics     *telemetry.Registry
	metricsName string
	trace       *telemetry.StreamTracer
	err         error
}

// NewToStream opens a streaming region. Options Input, Telemetry and Trace
// apply to the whole region. The region keeps stream order end to end:
// replicated stages become farms, which are ordered by construction (what
// SPar's -spar_ordered flag asks for).
func NewToStream(opts ...Option) *ToStream {
	var o options
	for _, op := range opts {
		op(&o)
	}
	return &ToStream{
		inputs:      o.inputs,
		metrics:     o.metrics,
		metricsName: o.metricsName,
		trace:       o.trace,
	}
}

// Stage appends a stage with a stateless body, shared by every replica.
// Use StageWorkers for stateful replicas.
func (t *ToStream) Stage(fn StageFunc, opts ...Option) *ToStream {
	body := noErr(fn)
	return t.addStage(func() StageFuncErr { return body }, opts)
}

// StageWorkers appends a stage whose replicas each get their own body:
// Run calls factory once per replica, so state the returned closure
// captures belongs to that replica alone and needs no locking. That is
// where §IV-A's per-thread objects (kernel objects, matchers, scratch
// buffers) are built.
func (t *ToStream) StageWorkers(factory func() StageFunc, opts ...Option) *ToStream {
	return t.addStage(func() StageFuncErr { return noErr(factory()) }, opts)
}

// StageErr appends a stage with a fallible body: when fn returns a non-nil
// error the stream is canceled and the error surfaces from Run.
func (t *ToStream) StageErr(fn StageFuncErr, opts ...Option) *ToStream {
	return t.addStage(func() StageFuncErr { return fn }, opts)
}

// noErr lifts an infallible body to the runtime's one body type.
func noErr(fn StageFunc) StageFuncErr {
	return func(item any, emit func(any)) error {
		fn(item, emit)
		return nil
	}
}

func (t *ToStream) addStage(body func() StageFuncErr, opts []Option) *ToStream {
	var o options
	o.replicate = 1
	for _, op := range opts {
		op(&o)
	}
	if o.name == "" {
		o.name = fmt.Sprintf("S%d", len(t.stages)+1)
	}
	if o.replicate < 1 && t.err == nil {
		t.err = fmt.Errorf("core: stage %s: Replicate(%d) must be >= 1", o.name, o.replicate)
	}
	t.stages = append(t.stages, &StageDef{
		Name:      o.name,
		Replicate: o.replicate,
		Inputs:    o.inputs,
		Outputs:   o.outputs,
		Offload:   o.offload,
		body:      body,
	})
	return t
}

// Validate applies SPar's semantic rules: a ToStream needs at least one
// Stage; declared stage Inputs must be satisfied by what flows into the
// stage (region inputs plus all upstream Outputs).
func (t *ToStream) Validate() error {
	if t.err != nil {
		return t.err
	}
	if len(t.stages) == 0 {
		return errors.New("core: ToStream requires at least one Stage")
	}
	avail := make(map[string]bool)
	for _, v := range t.inputs {
		avail[v] = true
	}
	for _, s := range t.stages {
		if len(t.inputs) > 0 && len(s.Inputs) > 0 {
			for _, v := range s.Inputs {
				if !avail[v] {
					return fmt.Errorf("core: stage %s consumes %q, which no upstream stage or the ToStream region provides", s.Name, v)
				}
			}
		}
		for _, v := range s.Outputs {
			avail[v] = true
		}
	}
	return nil
}

// Graph describes the parallel activity graph SPar generates — the
// pipeline/farm structure of Fig. 3.
type Graph struct {
	Stages []GraphStage
}

// GraphStage is one node of the activity graph.
type GraphStage struct {
	Name      string
	Replicate int
	// Offload marks the stage as accelerator-eligible (spar::Pure): the
	// front-end's hook for the paper's future-work GPU code generation.
	Offload bool
}

// Graph returns the activity graph (source stage first).
func (t *ToStream) Graph() Graph {
	var g Graph
	g.Stages = append(g.Stages, GraphStage{Name: "ToStream", Replicate: 1})
	for _, s := range t.stages {
		g.Stages = append(g.Stages, GraphStage{Name: s.Name, Replicate: s.Replicate, Offload: s.Offload})
	}
	return g
}

// String renders the graph like the paper's activity diagrams:
// ToStream → S1 ×10 → S2.
func (g Graph) String() string {
	var b strings.Builder
	for i, s := range g.Stages {
		if i > 0 {
			b.WriteString(" → ")
		}
		b.WriteString(s.Name)
		if s.Replicate > 1 {
			fmt.Fprintf(&b, " ×%d", s.Replicate)
		}
		if s.Offload {
			b.WriteString(" [gpu]")
		}
	}
	return b.String()
}

// stageNode runs one replica's body as an ff.Node: a non-nil error return
// value is handed to the runtime, which records it and cancels the stream.
type stageNode struct {
	ff.NodeBase
	fn   StageFuncErr
	emit func(any) // n.SendOut, bound once rather than per item
}

func (n *stageNode) Svc(task any) any {
	if n.emit == nil {
		n.emit = n.SendOut
	}
	if err := n.fn(task, n.emit); err != nil {
		return err
	}
	return ff.GoOn
}

// stopEmit unwinds the source generator when the stream has been canceled;
// sourceNode.Svc recovers it and ends the stream cleanly.
type stopEmit struct{}

// sourceNode drives the region's generator function.
type sourceNode struct {
	ff.NodeBase
	gen func(emit func(any))
	// stopped reports stream cancellation; wired to Pipeline.Canceled by
	// RunContext so a canceled run doesn't generate the rest of the stream.
	stopped func() bool
}

func (n *sourceNode) Svc(any) (out any) {
	out = ff.EOS
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopEmit); !ok {
				panic(r)
			}
		}
	}()
	n.gen(func(v any) {
		if n.stopped != nil && n.stopped() {
			panic(stopEmit{})
		}
		n.SendOut(v)
	})
	return ff.EOS
}

// Run compiles the region to a FastFlow graph (SPar's source-to-source
// transformation, applied at runtime) and executes it to completion.
// source is the ToStream loop body: it emits every stream item, then
// returns.
func (t *ToStream) Run(source func(emit func(any))) error {
	return t.RunContext(context.Background(), source)
}

// RunContext is Run under a context: when ctx is canceled or times out the
// stream is aborted (the source stops emitting, downstream stages drain)
// and the context error is returned. Stage panics and StageErr errors are
// likewise recovered into the returned error instead of crashing the
// process.
func (t *ToStream) RunContext(ctx context.Context, source func(emit func(any))) error {
	if err := t.Validate(); err != nil {
		return err
	}
	src := &sourceNode{gen: source}
	stages := make([]any, 0, len(t.stages)+1)
	stages = append(stages, src)
	for _, s := range t.stages {
		if s.Replicate == 1 {
			stages = append(stages, &stageNode{fn: s.body()})
			continue
		}
		workers := make([]ff.Node, s.Replicate)
		for i := range workers {
			workers[i] = &stageNode{fn: s.body()}
		}
		stages = append(stages, ff.NewFarm(workers))
	}
	pipe := ff.NewPipeline(stages...)
	if t.metrics != nil || t.trace != nil {
		names := make([]string, 0, len(t.stages)+1)
		names = append(names, "source")
		for _, s := range t.stages {
			names = append(names, s.Name)
		}
		name := t.metricsName
		if name == "" {
			name = "spar"
		}
		pipe.SetTelemetry(t.metrics, name, names...)
		pipe.SetStreamTracer(t.trace)
	}
	src.stopped = pipe.Canceled
	return pipe.RunContext(ctx)
}
