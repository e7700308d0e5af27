package spanno

import (
	"fmt"

	"streamgpu/internal/core"
)

// Instantiate completes the compiler story end to end: it takes parsed
// annotations and a set of Go stage bodies (keyed by stage name "S1",
// "S2", ... in annotation order) and produces a runnable core.ToStream —
// the runtime graph the SPar source-to-source compiler would have
// generated from the annotated source.
//
// env and def resolve symbolic Replicate degrees as in BuildGraph; extra
// options (core.Telemetry(...), core.Trace(...)) apply to the whole region.
func Instantiate(anns []Annotation, env map[string]int, def int, bodies map[string]core.StageFunc, opts ...core.Option) (*core.ToStream, error) {
	if err := validate(anns); err != nil {
		return nil, err
	}
	if len(anns) == 0 {
		return nil, &ParseError{1, "no spar annotations found"}
	}
	regionOpts := append([]core.Option{}, opts...)
	if in, ok := anns[0].Find(Input); ok {
		regionOpts = append(regionOpts, core.Input(in.Args...))
	}
	ts := core.NewToStream(regionOpts...)
	sn := 0
	for _, a := range anns[1:] {
		if a.Identifier() != Stage {
			continue
		}
		sn++
		name := fmt.Sprintf("S%d", sn)
		body, ok := bodies[name]
		if !ok {
			return nil, &ParseError{a.Line, fmt.Sprintf("no body bound for stage %s", name)}
		}
		stageOpts := []core.Option{
			core.Name(name),
			core.Replicate(ReplicateDegree(a, env, def)),
		}
		if in, ok := a.Find(Input); ok {
			stageOpts = append(stageOpts, core.Input(in.Args...))
		}
		if out, ok := a.Find(Output); ok {
			stageOpts = append(stageOpts, core.Output(out.Args...))
		}
		if _, ok := a.Find(Pure); ok {
			stageOpts = append(stageOpts, core.Offload())
		}
		ts.Stage(body, stageOpts...)
	}
	return ts, nil
}
