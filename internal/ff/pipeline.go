package ff

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// defaultQueueCap is the default bounded-queue capacity between nodes,
// matching FastFlow's default of 512 slots.
const defaultQueueCap = 512

// burstCap is the consumer-side burst size: service loops pop up to this
// many items per head publish (TryPopN), amortizing the queue's atomic
// traffic when a stage runs behind its producer.
const burstCap = 32

// stuckGrace bounds how long RunContext waits, after cancellation, for
// stages to notice and wind down. A stage stuck inside user code past this
// deadline is abandoned (its goroutine leaks; the process survives).
const stuckGrace = time.Second

// stage is anything that can occupy a pipeline position: a Node or a *Farm.
// tm carries the stage's telemetry instruments (nil when telemetry is off).
type stage interface {
	start(pl *Pipeline, tm *stageTelem, in, out *SPSC[any], wg *sync.WaitGroup)
}

// Pipeline composes stages connected by SPSC queues, one thread per plain
// node (ff_pipeline). Stages are Nodes or *Farms.
type Pipeline struct {
	stages   []stage
	queueCap int
	tel      *pipeTelem

	// canceled aborts the stream: sources stop emitting, other stages drop
	// their inputs and drain. Set by Cancel, RunContext expiry, and the
	// first node failure.
	canceled atomic.Bool

	errMu sync.Mutex
	errs  []error
}

// NewPipeline builds a pipeline from stages. Each stage must be a Node or a
// *Farm; anything else panics at construction (fail fast, as the FastFlow
// templates do at compile time).
func NewPipeline(stages ...any) *Pipeline {
	p := &Pipeline{queueCap: defaultQueueCap}
	for i, s := range stages {
		switch v := s.(type) {
		case *Farm:
			p.stages = append(p.stages, v)
		case Node:
			p.stages = append(p.stages, &nodeStage{node: v})
		default:
			panic(fmt.Sprintf("ff: pipeline stage %d is %T, want Node or *Farm", i, s))
		}
	}
	if len(p.stages) == 0 {
		panic("ff: empty pipeline")
	}
	return p
}

// SetQueueCap sets the capacity of inter-stage queues (default 512).
func (p *Pipeline) SetQueueCap(n int) *Pipeline {
	if n < 2 {
		n = 2
	}
	p.queueCap = n
	return p
}

// Cancel aborts the stream: the source stops generating, every other stage
// stops processing and drains its input so the pipeline winds down without
// deadlock. Already-emitted items may be dropped. Safe from any goroutine.
func (p *Pipeline) Cancel() { p.canceled.Store(true) }

// Canceled reports whether the stream has been aborted.
func (p *Pipeline) Canceled() bool { return p.canceled.Load() }

// reportErr records a node failure; the first one is returned by Run.
func (p *Pipeline) reportErr(err error) {
	p.errMu.Lock()
	p.errs = append(p.errs, err)
	p.errMu.Unlock()
}

// fail records a node failure and cancels the stream, so one broken stage
// stops the whole graph instead of leaving it running on garbage.
func (p *Pipeline) fail(err error) {
	p.reportErr(err)
	p.Cancel()
}

// firstErr returns the first recorded failure.
func (p *Pipeline) firstErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	if len(p.errs) > 0 {
		return p.errs[0]
	}
	return nil
}

// Run starts every stage and blocks until the stream has fully drained
// (run_and_wait_end). It returns the first node error, if any. A panicking
// stage does not crash the process: the panic is recovered, reported as a
// node error and cancels the stream.
func (p *Pipeline) Run() error {
	return p.RunContext(context.Background())
}

// RunContext is Run under a context: when ctx expires the stream is
// canceled, the stages drain, and the context error is returned. A stage
// stuck in user code past a grace period is abandoned (its goroutine leaks)
// rather than hanging the caller forever.
func (p *Pipeline) RunContext(ctx context.Context) error {
	n := len(p.stages)
	queues := make([]*SPSC[any], n-1)
	for i := range queues {
		queues[i] = NewSPSC[any](p.queueCap, false)
	}
	p.registerQueueGauges(queues)
	var wg sync.WaitGroup
	for i, s := range p.stages {
		var in, out *SPSC[any]
		if i > 0 {
			in = queues[i-1]
		}
		if i < n-1 {
			out = queues[i]
		}
		s.start(p, p.newStageTelem(i), in, out, &wg)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		p.fail(fmt.Errorf("ff: run canceled: %w", ctx.Err()))
		select {
		case <-done:
		case <-time.After(stuckGrace):
			return fmt.Errorf("ff: run canceled with stages still blocked: %w", ctx.Err())
		}
	}
	return p.firstErr()
}

// nodeStage runs a single Node on its own goroutine.
type nodeStage struct {
	node Node
}

func (ns *nodeStage) start(pl *Pipeline, tm *stageTelem, in, out *SPSC[any], wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		runNode(pl, tm, ns.node, in, out)
	}()
}

// svcSafe invokes n.Svc with panic containment. A panic or an error return
// value becomes a recorded node failure that cancels the stream; ok=false
// tells the caller to stop servicing this node (drain and propagate EOS).
func svcSafe(pl *Pipeline, n Node, task any, where string) (r any, ok bool) {
	defer func() {
		if pv := recover(); pv != nil {
			pl.fail(fmt.Errorf("ff: %s: panic: %v\n%s", where, pv, debug.Stack()))
			r, ok = nil, false
		}
	}()
	r = n.Svc(task)
	if err, isErr := r.(error); isErr {
		pl.fail(fmt.Errorf("ff: %s: %w", where, err))
		return nil, false
	}
	return r, true
}

// runNode is a single-node pipeline stage's service loop: consume/produce
// until EOS (or failure/cancellation), then propagate EOS. tm (nil when
// telemetry is off) observes items in/out, service time, drops and errors.
func runNode(pl *Pipeline, tm *stageTelem, n Node, in, out *SPSC[any]) {
	where := fmt.Sprintf("node %T", n)
	send := func(v any) {
		switch {
		case out == nil:
		case pl.Canceled():
			tm.dropped(1)
		default:
			out.Push(v)
			tm.itemOut()
		}
	}
	if on, ok := n.(OutNode); ok {
		on.setOut(send)
	}
	if in == nil {
		// Source: svc(nil) until EOS or the stream is aborted.
		for !pl.Canceled() {
			t0 := tm.svcStart()
			r, ok := svcSafe(pl, n, nil, where)
			tm.svcEnd(t0)
			if !ok {
				tm.errored()
			}
			if !ok || r == EOS {
				break
			}
			if r != GoOn {
				send(r)
			}
		}
	} else {
		// Drain the input in bursts: one head publish covers up to burstCap
		// items, and a stage that falls behind catches up without paying a
		// queue round-trip per item.
		var burst [burstCap]any
	serve:
		for {
			got := in.TryPopN(burst[:])
			if got == 0 {
				burst[0] = in.Pop()
				got = 1
			}
			for j := 0; j < got; j++ {
				t := burst[j]
				burst[j] = nil
				if t == EOS {
					break serve
				}
				if pl.Canceled() {
					// Keep consuming so upstream can finish, drop the items
					// (including the rest of this burst).
					tm.dropped(1 + drainBurst(in, burst[j+1:got]))
					break serve
				}
				tm.itemIn()
				t0 := tm.svcStart()
				r, ok := svcSafe(pl, n, t, where)
				tm.svcEnd(t0)
				if !ok || r == EOS {
					// Failure or early termination: keep consuming so
					// upstream can finish, but drop the items.
					if !ok {
						tm.errored()
					}
					tm.dropped(drainBurst(in, burst[j+1:got]))
					break serve
				}
				if r != GoOn {
					send(r)
				}
			}
		}
	}
	if out != nil {
		out.Push(EOS)
	}
}

// drain consumes and discards items until EOS, returning how many were
// discarded (the fault path's drop count).
func drain(in *SPSC[any]) int64 {
	var n int64
	for {
		if in.Pop() == EOS {
			return n
		}
		n++
	}
}

// drainBurst discards the unprocessed tail of a popped burst, then the rest
// of the queue, returning the total dropped. If the EOS was already popped
// into the burst the queue must not be touched again — nothing ever follows
// EOS, so a blind drain would block forever.
func drainBurst(in *SPSC[any], rest []any) int64 {
	var n int64
	for _, t := range rest {
		if t == EOS {
			return n
		}
		n++
	}
	return n + drain(in)
}
