package ff

import (
	"fmt"
	"sync"
)

// seqOut carries the ordered-farm bookkeeping: the outputs a worker
// produced for input number seq (possibly none, possibly several via
// SendOut).
type seqOut struct {
	seq  uint64
	vals []any
}

// seqIn wraps an input with its sequence number on the way to a worker.
type seqIn struct {
	seq uint64
	val any
}

// Farm is the FastFlow task-farm: an emitter scheduling tasks over
// replicated workers and a collector gathering results (ff_farm /
// ff_OFarm). The emitter forwards its input round-robin and the collector
// forwards every result; without options the farm is unordered.
type Farm struct {
	workers []Node
	ordered bool
}

// FarmOpt configures a Farm.
type FarmOpt func(*Farm)

// Ordered makes the farm emit results in input order (ff_OFarm), the mode
// Mandelbrot's display stage and Dedup's reorder stage need.
func Ordered() FarmOpt { return func(f *Farm) { f.ordered = true } }

// NewFarm builds a farm over the given worker nodes.
func NewFarm(workers []Node, opts ...FarmOpt) *Farm {
	if len(workers) == 0 {
		panic("ff: farm with no workers")
	}
	f := &Farm{workers: workers}
	for _, o := range opts {
		o(f)
	}
	return f
}

// start wires the farm into a pipeline position; out == nil means last
// stage. A farm has no source of its own, so it cannot be the first stage.
func (f *Farm) start(pl *Pipeline, tm *stageTelem, in, out *SPSC[any], wg *sync.WaitGroup) {
	if in == nil {
		panic("ff: a farm cannot be a pipeline's first stage: put a source node before it")
	}
	nw := len(f.workers)
	wqs := make([]*SPSC[any], nw) // emitter -> worker i
	for i := range wqs {
		wqs[i] = NewSPSC[any](pl.queueCap, false)
	}
	// All workers fan into one MPMC collector queue: the collector pops
	// bursts from a single ring instead of polling nw SPSC queues, so an
	// idle worker costs it nothing and a hot worker's results are never
	// stuck behind an empty queue in the round-robin. Capacity preserves the
	// per-worker budget of the old cqs.
	cq := NewMPMC[any](pl.queueCap*nw, false)
	tm.registerFarmQueueGauges(wqs, cq)

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
			f.runWorker(pl, tm, i, wqs[i], cq)
		}(i)
	}

	// --- collector ---
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.runCollector(pl, tm, cq, len(f.workers), out)
	}()
}

// runEmitter forwards pipeline input over the workers round-robin, a burst
// at a time.
func (f *Farm) runEmitter(pl *Pipeline, tm *stageTelem, in *SPSC[any], wqs []*SPSC[any]) {
	var seq uint64
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
			if f.ordered {
				t = seqIn{seq: seq, val: t}
				seq++
			}
			wqs[next].Push(t)
			next = (next + 1) % len(wqs)
		}
	}
	for _, wq := range wqs {
		wq.Push(EOS)
	}
}

// runWorker executes one replica's service loop. Service times and per-item
// traces are observed here: the workers are where a farm stage spends its
// time.
func (f *Farm) runWorker(pl *Pipeline, tm *stageTelem, i int, wq *SPSC[any], cq *MPMC[any]) {
	w := f.workers[i]
	where := fmt.Sprintf("worker %d", i)
	// Multi-output plumbing: unordered workers push straight to their
	// collector queue; ordered workers accumulate into the per-input
	// output list so sequencing survives SendOut and GoOn.
	var pending *seqOut
	if on, ok := w.(OutNode); ok {
		on.setOut(func(v any) {
			if f.ordered {
				pending.vals = append(pending.vals, v)
				return
			}
			cq.Push(v)
		})
	}
	if !initSafe(pl, w, where) {
		tm.errored()
		tm.dropped(drain(wq))
		cq.Push(EOS)
		return
	}
	var burst [burstCap]any
serve:
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
				break serve
			}
			if pl.Canceled() {
				tm.dropped(1 + drainBurst(wq, burst[j+1:got]))
				break serve
			}
			if f.ordered {
				si := t.(seqIn)
				pending = &seqOut{seq: si.seq}
				t0 := tm.svcStart()
				r, ok := svcSafe(pl, w, si.val, where)
				tm.svcEnd(t0)
				if r != GoOn && r != EOS && ok {
					pending.vals = append(pending.vals, r)
				}
				cq.Push(*pending)
				pending = nil
				if !ok || r == EOS {
					if !ok {
						tm.errored()
					}
					tm.dropped(drainBurst(wq, burst[j+1:got]))
					break serve
				}
				continue
			}
			t0 := tm.svcStart()
			r, ok := svcSafe(pl, w, t, where)
			tm.svcEnd(t0)
			if !ok || r == EOS {
				if !ok {
					tm.errored()
				}
				tm.dropped(drainBurst(wq, burst[j+1:got]))
				break serve
			}
			if r != GoOn {
				cq.Push(r)
			}
		}
	}
	endSafe(pl, w, where)
	cq.Push(EOS)
}

// runCollector gathers worker results (burst pops off the shared MPMC
// fan-in queue), restores order if requested, and forwards downstream.
func (f *Farm) runCollector(pl *Pipeline, tm *stageTelem, cq *MPMC[any], nworkers int, out *SPSC[any]) {
	handle := func(v any) {
		switch {
		case pl.Canceled():
			tm.dropped(1)
		case out != nil:
			out.Push(v)
			tm.itemOut()
		}
	}

	// Ordered reorder buffer.
	buffered := make(map[uint64][]any)
	var nextSeq uint64
	flush := func() {
		for {
			vals, ok := buffered[nextSeq]
			if !ok {
				return
			}
			delete(buffered, nextSeq)
			for _, v := range vals {
				handle(v)
			}
			nextSeq++
		}
	}

	eos := 0
	var burst [burstCap]any
	for eos < nworkers {
		got := cq.TryPopN(burst[:])
		if got == 0 {
			burst[0], _ = cq.PopWait() // cq is never closed: PopWait returns an item
			got = 1
		}
		for j := 0; j < got; j++ {
			v := burst[j]
			burst[j] = nil
			if v == EOS {
				eos++
				continue
			}
			if f.ordered {
				so := v.(seqOut)
				buffered[so.seq] = so.vals
				flush()
				continue
			}
			handle(v)
		}
	}
	if f.ordered {
		flush()
		switch {
		case len(buffered) == 0:
		case pl.Canceled():
			// Sequences behind a gap a canceled worker left: never handled.
			for _, vals := range buffered {
				tm.dropped(int64(len(vals)))
			}
		default:
			pl.reportErr(fmt.Errorf("ff: ordered farm lost %d sequences", len(buffered)))
		}
	}
	if out != nil {
		out.Push(EOS)
	}
}
