package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, or one client-side request phase.
// Spans of one request share Req; Parent is the ID of the span that caused
// this one (0 for a root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the end-to-end windows run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID, for end to close and for children
// to name as their parent.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose times were taken elsewhere (a client request is
// timed from its due time, which precedes the code that sends it).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	id := t.begin(name, parent, req)
	if id > 0 {
		t.mu.Lock()
		t.spans[id-1].Start = start.Sub(t.t0).Nanoseconds()
		t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
		t.mu.Unlock()
	}
	return id
}

// total sums the spans of one name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// traceDoc is the file a traced run leaves behind: every span plus the
// per-layer table computed from them and from the registry snapshots.
type traceDoc struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	PerLayer map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path string, doc traceDoc) error {
	doc.Spans = t.spans
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
