package ff

import (
	"fmt"
	"sync"
)

// Farm is the FastFlow task-farm: an emitter scheduling tasks over
// replicated workers and a collector gathering results. The emitter deals
// its input round-robin, each worker answers every input with exactly one
// entry on its own output queue, and the collector takes those entries in
// the same round-robin order, so results leave in input order (ff_OFarm)
// by construction, the order Mandelbrot's display stage and Dedup's
// reorder stage need.
type Farm struct {
	workers []Node
}

// NewFarm builds a farm over the given worker nodes.
func NewFarm(workers []Node) *Farm {
	if len(workers) == 0 {
		panic("ff: farm with no workers")
	}
	return &Farm{workers: workers}
}

// multi is the collector entry of an input for which SendOut emitted
// several outputs. A private type, so no user value is mistaken for one.
type multi []any

// start wires the farm into a pipeline position; out == nil means last
// stage. A farm has no source of its own, so it cannot be the first stage.
func (f *Farm) start(pl *Pipeline, tm *stageTelem, in, out *SPSC[any], wg *sync.WaitGroup) {
	if in == nil {
		panic("ff: a farm cannot be a pipeline's first stage: put a source node before it")
	}
	nw := len(f.workers)
	wqs := make([]*SPSC[any], nw) // emitter -> worker i
	cqs := make([]*SPSC[any], nw) // worker i -> collector
	for i := range wqs {
		wqs[i] = NewSPSC[any](pl.queueCap, false)
		cqs[i] = NewSPSC[any](pl.queueCap, false)
	}
	tm.registerFarmQueueGauges(wqs, cqs)

	// --- emitter ---
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.runEmitter(pl, tm, in, wqs)
	}()

	// --- workers ---
	for i := range f.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.runWorker(pl, tm, i, wqs[i], cqs[i])
		}(i)
	}

	// --- collector ---
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.runCollector(pl, tm, cqs, out)
	}()
}

// runEmitter forwards pipeline input over the workers round-robin, a burst
// at a time.
func (f *Farm) runEmitter(pl *Pipeline, tm *stageTelem, in *SPSC[any], wqs []*SPSC[any]) {
	next := 0
	var burst [burstCap]any
forward:
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
				break forward
			}
			if pl.Canceled() {
				tm.dropped(1 + drainBurst(in, burst[j+1:got]))
				break forward
			}
			tm.itemIn()
			wqs[next].Push(t)
			next = (next + 1) % len(wqs)
		}
	}
	for _, wq := range wqs {
		wq.Push(EOS)
	}
}

// pack turns the outputs of one input into its one collector entry: GoOn
// for none, the output itself for one, a multi for several. It clears outs
// for reuse, so the common case of at most one output allocates nothing.
func pack(outs []any) any {
	switch len(outs) {
	case 0:
		return GoOn
	case 1:
		v := outs[0]
		outs[0] = nil
		return v
	}
	m := make(multi, len(outs))
	copy(m, outs)
	clear(outs)
	return m
}

// runWorker executes one replica's service loop. Service times and per-item
// traces are observed here: the workers are where a farm stage spends its
// time. A worker that stops early pushes its EOS before it drains its
// input: the collector may be waiting on this worker's queue, and until
// it moves on the other workers' queues fill and the emitter stalls.
func (f *Farm) runWorker(pl *Pipeline, tm *stageTelem, i int, wq, cq *SPSC[any]) {
	w := f.workers[i]
	where := fmt.Sprintf("worker %d", i)
	var outs []any // what SendOut emitted for the current input
	if on, ok := w.(OutNode); ok {
		on.setOut(func(v any) { outs = append(outs, v) })
	}
	var burst [burstCap]any
	for {
		got := wq.TryPopN(burst[:])
		if got == 0 {
			burst[0] = wq.Pop()
			got = 1
		}
		for j := 0; j < got; j++ {
			t := burst[j]
			burst[j] = nil
			if t == EOS {
				cq.Push(EOS)
				return
			}
			if pl.Canceled() {
				cq.Push(EOS)
				tm.dropped(1 + drainBurst(wq, burst[j+1:got]))
				return
			}
			t0 := tm.svcStart()
			r, ok := svcSafe(pl, w, t, where)
			tm.svcEnd(t0)
			if ok && r != GoOn && r != EOS {
				outs = append(outs, r)
			}
			cq.Push(pack(outs))
			outs = outs[:0]
			if !ok || r == EOS {
				if !ok {
					tm.errored()
				}
				cq.Push(EOS)
				tm.dropped(drainBurst(wq, burst[j+1:got]))
				return
			}
		}
	}
}

// runCollector takes one entry per input from the workers in the emitter's
// dealing order and forwards its outputs downstream. It skips a worker once
// that worker has sent EOS, and ends when every worker has.
func (f *Farm) runCollector(pl *Pipeline, tm *stageTelem, cqs []*SPSC[any], out *SPSC[any]) {
	forward := func(v any) {
		switch {
		case pl.Canceled():
			tm.dropped(1)
		case out != nil:
			out.Push(v)
			tm.itemOut()
		}
	}
	ended := make([]bool, len(cqs))
	for k, live := 0, len(cqs); live > 0; k = (k + 1) % len(cqs) {
		if ended[k] {
			continue
		}
		switch v := cqs[k].Pop(); v {
		case EOS:
			ended[k] = true
			live--
		case GoOn:
		default:
			if m, ok := v.(multi); ok {
				for _, o := range m {
					forward(o)
				}
			} else {
				forward(v)
			}
		}
	}
	if out != nil {
		out.Push(EOS)
	}
}
