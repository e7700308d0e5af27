package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Tracer collects completed spans into a bounded in-memory buffer. Spans
// model host-side phases (prepare, run, write) with parent/child nesting;
// for the high-frequency per-item view use StreamTracer instead. A nil
// *Tracer is valid and records nothing.
type Tracer struct {
	mu      sync.Mutex
	cap     int
	nextID  int64
	spans   []SpanRecord
	dropped int64
}

// DefaultTraceCap bounds trace buffers when no capacity is given.
const DefaultTraceCap = 4096

// NewTracer creates a tracer retaining at most capacity completed spans
// (<= 0 selects DefaultTraceCap). The oldest spans are dropped first.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{cap: capacity}
}

// Span is one in-flight operation. Annotate and End must be called from the
// goroutine that started the span; a nil *Span no-ops everywhere.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time
	attrs  map[string]string
}

// SpanRecord is a completed span as retained (and serialized) by the tracer.
type SpanRecord struct {
	ID       int64             `json:"id"`
	Parent   int64             `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Start opens a root span.
func (t *Tracer) Start(name string) *Span { return t.start(name, 0) }

func (t *Tracer) start(name string, parent int64) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Span{t: t, id: id, parent: parent, name: name, start: time.Now()}
}

// Child opens a span nested under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(name, s.id)
}

// Annotate attaches a key/value attribute to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
}

// End completes the span and hands it to the tracer.
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := SpanRecord{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Duration: time.Since(s.start), Attrs: s.attrs,
	}
	t := s.t
	t.mu.Lock()
	if len(t.spans) >= t.cap {
		t.spans = t.spans[1:]
		t.dropped++
	}
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// Spans returns a copy of the retained (completed) spans, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped reports how many completed spans were evicted by the cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// ItemSpan is one stage visit of one stream item: the per-item trace unit.
// Item ids are per-stage completion sequence numbers — at a single-node
// stage they coincide with the stream position; at a farm, whose replicas
// finish out of order, they count completions there.
type ItemSpan struct {
	Item  int64     `json:"item"`
	Stage string    `json:"stage"`
	Enter time.Time `json:"enter"`
	Exit  time.Time `json:"exit"`
}

// StreamTracer records per-item stage enter/exit timestamps into a bounded
// buffer (oldest dropped first). It is the runtime-facing half of -trace-out:
// internal/ff feeds it when a pipeline has one attached. A nil *StreamTracer
// records nothing, so the hot path pays one nil check when tracing is off.
type StreamTracer struct {
	mu      sync.Mutex
	cap     int
	events  []ItemSpan
	dropped int64
}

// NewStreamTracer creates a stream tracer retaining at most capacity item
// spans (<= 0 selects DefaultTraceCap).
func NewStreamTracer(capacity int) *StreamTracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &StreamTracer{cap: capacity}
}

// Observe records one item's visit to one stage.
func (st *StreamTracer) Observe(item int64, stage string, enter, exit time.Time) {
	if st == nil {
		return
	}
	st.mu.Lock()
	if len(st.events) >= st.cap {
		st.events = st.events[1:]
		st.dropped++
	}
	st.events = append(st.events, ItemSpan{Item: item, Stage: stage, Enter: enter, Exit: exit})
	st.mu.Unlock()
}

// Events returns a copy of the retained item spans, oldest first.
func (st *StreamTracer) Events() []ItemSpan {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]ItemSpan, len(st.events))
	copy(out, st.events)
	return out
}

// Dropped reports how many item spans were evicted by the cap.
func (st *StreamTracer) Dropped() int64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dropped
}

// Trace is the -trace-out document: host-phase spans plus per-item stage
// visits.
type Trace struct {
	Spans        []SpanRecord `json:"spans,omitempty"`
	Items        []ItemSpan   `json:"items,omitempty"`
	SpansDropped int64        `json:"spans_dropped,omitempty"`
	ItemsDropped int64        `json:"items_dropped,omitempty"`
}

// WriteTrace writes both tracers (either may be nil) as one JSON document.
func WriteTrace(w io.Writer, t *Tracer, st *StreamTracer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Trace{
		Spans: t.Spans(), Items: st.Events(),
		SpansDropped: t.Dropped(), ItemsDropped: st.Dropped(),
	})
}

// WriteTraceFile writes the trace document to path (the -trace-out flag).
func WriteTraceFile(path string, t *Tracer, st *StreamTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, t, st); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
