package ff

// Control-flow sentinels, mirroring FastFlow's GO_ON and EOS tags. A node's
// Svc returns GoOn to emit nothing for this input, EOS to terminate the
// stream, or any other value to send it downstream (use SendOut for
// multiple outputs per input).
type signal int

var (
	// GoOn means "no output for this task, keep going" (FF_GO_ON).
	GoOn any = signal(1)
	// EOS terminates the stream (FF_EOS).
	EOS any = signal(2)
)

// Node is the FastFlow ff_node analogue: a stream transformer owning one
// thread of execution. It has no svc_init/svc_end hooks: state a node keeps
// across items is built with the node, and one node serves one thread.
//
// For the first node of a pipeline (the source), Svc is called with a nil
// input until it returns EOS. For every other node, Svc is called once per
// input item; input never is nil.
type Node interface {
	// Svc processes one task. Return the output task, GoOn for no output,
	// or EOS to end the stream (sources end this way; middle nodes ending
	// early also propagate EOS downstream).
	//
	// Returning an error value marks the node as failed: the stream is
	// canceled, the remaining stages drain, and the error surfaces from
	// Run. A panic inside Svc is recovered and treated the same way, so a
	// broken stage never crashes the process.
	Svc(task any) any
}

// OutNode is implemented by nodes that emit multiple outputs per input via
// ff_send_out. Embed NodeBase to get the plumbing.
type OutNode interface {
	setOut(func(any))
}

// NodeBase provides SendOut, FastFlow's ff_send_out: emit an output
// immediately, possibly several times per Svc call. Embed it in node
// structs that need multi-output.
type NodeBase struct {
	out func(any)
}

// SendOut emits v downstream. A farm worker's outputs for one input leave
// together, in order, once its Svc returns.
func (b *NodeBase) SendOut(v any) {
	if b.out == nil {
		panic("ff: SendOut before the node was started")
	}
	b.out(v)
}

func (b *NodeBase) setOut(f func(any)) { b.out = f }

// F wraps a plain function as a middle/sink Node.
type F func(task any) any

// Svc implements Node.
func (f F) Svc(task any) any { return f(task) }

// sourceFunc adapts a generator function to a source Node: fn is called
// until it reports done.
type sourceFunc struct {
	fn func() (any, bool)
}

// Svc implements Node.
func (s sourceFunc) Svc(any) any {
	v, ok := s.fn()
	if !ok {
		return EOS
	}
	return v
}

// Source builds a source node from a generator: each call produces the next
// stream item; ok=false ends the stream.
func Source(fn func() (any, bool)) Node { return sourceFunc{fn} }

// SliceSource builds a source node that emits each element of items.
func SliceSource[T any](items []T) Node {
	i := 0
	return Source(func() (any, bool) {
		if i >= len(items) {
			return nil, false
		}
		v := items[i]
		i++
		return v, true
	})
}

// Sink builds a terminal node from a consumer function.
func Sink(fn func(task any)) Node {
	return F(func(task any) any {
		fn(task)
		return GoOn
	})
}
