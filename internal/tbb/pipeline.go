package tbb

import (
	"sync"

	"streamgpu/internal/telemetry"
)

// Mode is a filter's concurrency mode, mirroring tbb::filter modes.
type Mode int

const (
	// Parallel filters process any number of items concurrently
	// (tbb::filter::parallel) — the mode the paper uses for Mandelbrot's
	// compute stage.
	Parallel Mode = iota
	// SerialInOrder filters process one item at a time in the order items
	// entered the pipeline (serial_in_order) — display/write stages.
	SerialInOrder
)

// String names the mode as tbb does. Every mode but Parallel runs as
// serial_in_order.
func (m Mode) String() string {
	if m == Parallel {
		return "parallel"
	}
	return "serial_in_order"
}

// Filter is one pipeline stage. The first filter of a pipeline is the input
// filter: its Fn is called with nil and returns the next stream item, or
// nil to end the stream. Later filters transform items and must not return
// nil.
type Filter struct {
	mode Mode
	fn   func(item any) any
	st   serialState
}

// NewFilter builds a filter with the given mode and body.
func NewFilter(mode Mode, fn func(item any) any) *Filter {
	return &Filter{mode: mode, fn: fn}
}

// item is an in-flight stream element.
type item struct {
	seq uint64
	idx int // next filter to run
	val any
}

// serialState runs a serial-in-order filter's items in sequence order. Only
// the item numbered next may enter, so it runs alone; the others park here
// and the finishing item wakes its successor.
type serialState struct {
	mu      sync.Mutex
	next    uint64           // the one sequence number that may enter
	pending map[uint64]*item // parked items by seq
}

// Pipeline is a tbb::pipeline: a chain of filters executed over a bounded
// number of in-flight items (tokens).
type Pipeline struct {
	filters []*Filter
	tel     *pipeTelem
	telReg  *telemetry.Registry
	telName string
}

// NewPipeline builds a pipeline. The first filter must be SerialInOrder (it
// is the stream source).
func NewPipeline(filters ...*Filter) *Pipeline {
	if len(filters) < 2 {
		panic("tbb: pipeline needs an input filter and at least one more")
	}
	if filters[0].mode == Parallel {
		panic("tbb: input filter cannot be parallel")
	}
	for _, f := range filters {
		f.st.pending = make(map[uint64]*item)
	}
	return &Pipeline{filters: filters}
}

// Run executes the pipeline on s with at most maxTokens items in flight
// (tbb::pipeline::run(max_number_of_live_tokens)). It blocks until the
// input filter ends the stream and all items have drained.
func (p *Pipeline) Run(s *Scheduler, maxTokens int) {
	if maxTokens < 1 {
		panic("tbb: maxTokens must be >= 1")
	}
	tokens := make(chan struct{}, maxTokens)
	for i := 0; i < maxTokens; i++ {
		tokens <- struct{}{}
	}
	if p.telReg != nil {
		p.telReg.GaugeFunc("tbb_tokens_in_flight",
			telemetry.Labels{"pipeline": p.telName},
			func() float64 { return float64(maxTokens - len(tokens)) })
	}
	g := s.NewGroup()
	var seq uint64
	input := p.filters[0]
	for range tokens {
		v := p.applyFilter(input, 0, nil)
		if v == nil {
			// Recycle the end-of-stream probe's token so the in-flight
			// gauge reads zero once the pipeline drains.
			tokens <- struct{}{}
			break
		}
		if p.tel != nil {
			p.tel.items.Inc()
		}
		it := &item{seq: seq, idx: 1, val: v}
		seq++
		g.Go(func(w *Worker) {
			p.process(w, g, it, tokens)
		})
	}
	g.Wait()
}

// process advances an item through the filter chain until it completes or
// parks at a serial filter that is not yet at its sequence number.
func (p *Pipeline) process(w *Worker, g *Group, it *item, tokens chan struct{}) {
	for it.idx < len(p.filters) {
		f := p.filters[it.idx]
		if f.mode == Parallel {
			it.val = p.applyFilter(f, it.idx, it.val)
			it.idx++
			continue
		}
		st := &f.st
		st.mu.Lock()
		if it.seq != st.next {
			// Park; the preceding sequence will reschedule us.
			st.pending[it.seq] = it
			st.mu.Unlock()
			return
		}
		st.mu.Unlock()

		it.val = p.applyFilter(f, it.idx, it.val)

		st.mu.Lock()
		st.next++
		wake, ok := st.pending[st.next]
		delete(st.pending, st.next)
		st.mu.Unlock()
		if ok {
			g.SpawnIn(w, func(w *Worker) {
				p.process(w, g, wake, tokens)
			})
		}
		it.idx++
	}
	// Item finished: recycle its token so the injector can admit another.
	tokens <- struct{}{}
}
