// Package telemetry is the repository's observability subsystem: a
// concurrent metrics registry (counters, gauges, histograms), lightweight
// trace spans with per-item stream tracing, and two sinks — a
// Prometheus-text-exposition http.Handler (served next to net/http/pprof by
// Serve) and a JSON snapshot writer.
//
// The paper's whole argument rests on quantities that are invisible at
// runtime without it: per-stage service time (which stage is the
// bottleneck?), queue occupancy between pipeline stages (FastFlow's
// lock-free queues exist to absorb inter-stage backpressure), and
// transfer/compute overlap on the GPU streams (Fig. 1's optimization ladder
// is a story about hiding transfer latency). Every runtime layer —
// internal/ff, internal/core, internal/tbb, internal/gpu and its facades —
// accepts a *Registry and publishes into it; the cmd binaries expose the
// registry via -metrics-addr and -trace-out.
//
// Design constraints, in order:
//
//   - Nil-safe: a nil *Registry hands out nil instruments whose methods
//     no-op, so instrumented code needs no "is telemetry on?" branching and
//     disabled telemetry costs one predictable nil check per event.
//   - Race-free: instruments are atomics; registration is mutex-guarded
//     get-or-create; a scraper goroutine may snapshot while every pipeline
//     stage writes (the whole tree runs under -race in CI).
//   - Stdlib only.
//
// Metric naming follows the Prometheus conventions: snake_case, the unit as
// suffix (_seconds, _bytes), monotonic counters end in _total. Labels
// identify the instance (pipeline, stage, device, stream); keep their
// cardinality bounded by the process's structure, never by its data. Note
// that metrics published by the simulated GPU (internal/gpu) are measured in
// virtual time — see DESIGN.md §9.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Labels identifies one series of a metric family.
type Labels map[string]string

// Kind discriminates metric families.
type Kind int

// The three metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Registry is a concurrent metric registry. The zero value is not usable;
// create one with New. A nil *Registry is valid everywhere and hands out
// no-op instruments, so instrumented code can treat "telemetry disabled" and
// "telemetry enabled" identically.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is every series registered under one metric name.
type family struct {
	name   string
	kind   Kind
	series map[string]*series // by rendered label key
}

// series is one labelled instrument of a family.
type series struct {
	labels  Labels
	key     string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders labels deterministically: sorted k="v" pairs.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// lookup returns the series for (name, labels) under kind, creating family,
// series, and instrument as needed — all under the registry lock, so two
// goroutines racing to first-use the same series get the same instrument
// (buckets only matters for histograms). Registering an existing name with
// a different kind is a programming error and panics, as does an empty
// name.
func (r *Registry) lookup(kind Kind, name string, labels Labels, buckets []float64) *series {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q already registered as a %s, now requested as a %s",
			name, fam.kind, kind))
	}
	key := labelKey(labels)
	s := fam.series[key]
	if s == nil {
		cp := make(Labels, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
		s = &series{labels: cp, key: key}
		fam.series[key] = s
	}
	switch kind {
	case KindCounter:
		if s.counter == nil {
			s.counter = &Counter{}
		}
	case KindGauge:
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
	case KindHistogram:
		if s.hist == nil {
			s.hist = newHistogram(buckets)
		}
	}
	return s
}

// Counter returns the counter registered under (name, labels), creating it
// on first use. Calling on a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(KindCounter, name, labels, nil).counter
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use. Calling on a nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(KindGauge, name, labels, nil).gauge
}

// GaugeFunc registers a callback gauge: fn is invoked at snapshot time.
// Re-registering the same (name, labels) replaces the callback — pipelines
// that rebuild their queues on every Run re-point the gauge at the live
// queue. fn must be safe to call from the scraper goroutine.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	g := r.Gauge(name, labels)
	g.fn.Store(fn)
}

// Histogram returns the histogram registered under (name, labels), creating
// it with the given bucket upper bounds on first use (nil buckets selects
// SecondsBuckets). Later calls ignore buckets and return the existing
// instrument. Calling on a nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, buckets []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(KindHistogram, name, labels, buckets).hist
}

// Snapshot captures every metric at one instant, sorted by family name and
// label key, for the exposition and JSON sinks.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{TakenAt: time.Now()}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		m := Metric{Name: f.name, Kind: f.kind.String()}
		r.mu.Lock()
		ss := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, s)
		}
		r.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].key < ss[j].key })
		for _, s := range ss {
			m.Series = append(m.Series, s.snapshot(f.kind))
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}
