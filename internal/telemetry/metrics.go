package telemetry

import (
	"math"
	"sync/atomic"
	"time"

	"streamgpu/internal/stats"
)

// Counter is a monotonically increasing metric (items processed, bytes
// transferred, faults injected). All methods are safe on a nil receiver and
// under concurrency.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n < 0 is ignored; counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (queue depth, outstanding
// operations, tokens in flight). A gauge may instead be backed by a callback
// installed with Registry.GaugeFunc; the callback then wins at read time.
type Gauge struct {
	bits atomic.Uint64
	fn   atomic.Value // func() float64, set by GaugeFunc
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (negative to decrement).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the gauge reading (the callback's, if one is installed).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if fn, ok := g.fn.Load().(func() float64); ok && fn != nil {
		return fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// SecondsBuckets is the default histogram bucketing for durations:
// exponential from 1µs to 16s, wide enough for both real service times and
// the GPU model's virtual transfer/kernel durations.
var SecondsBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 0.25, 1, 4, 16,
}

// Histogram is a concurrent fixed-bucket histogram. Observations are
// lock-free; Snapshot converts to a stats.Histogram for quantile estimates
// and rendering. All methods are safe on a nil receiver.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram builds a standalone histogram outside any registry; nil
// bounds selects SecondsBuckets. The serving layer's admission estimator
// uses one so its queue-wait quantiles exist even when metrics are off.
func NewHistogram(bounds []float64) *Histogram { return newHistogram(bounds) }

// newHistogram builds the instrument; nil bounds selects SecondsBuckets.
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = SecondsBuckets
	}
	// Validate through stats.NewHistogram (panics on unsorted bounds).
	stats.NewHistogram(bounds...)
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return &Histogram{bounds: cp, counts: make([]atomic.Int64, len(cp)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := len(h.bounds)
	for j, b := range h.bounds {
		if v <= b {
			i = j
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot returns a point-in-time copy as a stats.Histogram. The copy is
// internally consistent enough for reporting (buckets, sum and count are
// read while writers may be active, so they can disagree by in-flight
// observations).
func (h *Histogram) Snapshot() *stats.Histogram {
	if h == nil {
		return &stats.Histogram{}
	}
	out := stats.NewHistogram(h.bounds...)
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	out.Count = h.count.Load()
	out.Sum = math.Float64frombits(h.sumBits.Load())
	return out
}

// snapshot renders one series for Registry.Snapshot.
func (s *series) snapshot(kind Kind) Series {
	out := Series{Labels: s.labels}
	switch kind {
	case KindCounter:
		out.Value = float64(s.counter.Value())
	case KindGauge:
		out.Value = s.gauge.Value()
	case KindHistogram:
		hs := s.hist.Snapshot()
		out.Count = hs.Count
		out.Sum = hs.Sum
		var cum int64
		for i, b := range hs.Bounds {
			cum += hs.Counts[i]
			out.Buckets = append(out.Buckets, Bucket{LE: b, Count: cum})
		}
		cum += hs.Counts[len(hs.Bounds)]
		out.Buckets = append(out.Buckets, Bucket{LE: math.Inf(1), Count: cum})
		if hs.Count > 0 {
			out.Quantiles = map[string]float64{
				"p50": hs.Quantile(0.50),
				"p90": hs.Quantile(0.90),
				"p99": hs.Quantile(0.99),
			}
		}
	}
	return out
}
