// Package pool provides the typed free lists behind the repository's
// zero-allocation hot paths: a generic object pool (Pool) and size-classed
// slice pools (Slices, Bytes, Int32s), all layered over sync.Pool so idle
// memory still returns to the garbage collector.
//
// The design follows FastFlow's buffer-reuse discipline [Aldinucci et al.]:
// stream runtimes amortize allocation by recycling the containers that flow
// through the pipeline, not by avoiding containers. Ownership is explicit —
// every Get must be balanced by exactly one Release once the value is no
// longer referenced, and releasing a value while any alias is still live is
// a use-after-release bug (the dedup race stress test exercises exactly
// this contract under -race). A Get that misses its Release on some path
// shows in the counters: the server's allocs-per-request test and the
// dedup pool-balance test under fault schedules both read them.
//
// Every pool counts gets, misses (a Get that had to allocate) and releases;
// SetTelemetry exposes the counts as gauges so reuse effectiveness is
// observable next to the pipeline metrics (DESIGN.md §10).
package pool

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"streamgpu/internal/telemetry"
)

// Stats is a point-in-time view of one pool's traffic.
type Stats struct {
	// Gets counts acquisitions; Misses counts the subset that allocated a
	// fresh value (so Gets-Misses is the number of reuses).
	Gets, Misses, Releases int64
}

// counters is the shared bookkeeping embedded in every pool flavour.
type counters struct {
	gets, misses, releases atomic.Int64
}

func (c *counters) stats() Stats {
	return Stats{
		Gets:     c.gets.Load(),
		Misses:   c.misses.Load(),
		Releases: c.releases.Load(),
	}
}

// register exposes the counters as cumulative gauges labelled {pool=name}.
func (c *counters) register(reg *telemetry.Registry, name string) {
	if reg == nil {
		return
	}
	lbl := telemetry.Labels{"pool": name}
	reg.GaugeFunc("pool_gets", lbl, func() float64 { return float64(c.gets.Load()) })
	reg.GaugeFunc("pool_misses", lbl, func() float64 { return float64(c.misses.Load()) })
	reg.GaugeFunc("pool_releases", lbl, func() float64 { return float64(c.releases.Load()) })
}

// Pool is a typed free list for whole objects (T is normally a pointer
// type, e.g. *dedup.Batch). The zero value is not usable; create with New.
type Pool[T any] struct {
	name  string
	newFn func() T
	p     sync.Pool
	counters
}

// New creates an object pool. newFn builds a fresh value on a miss; it must
// not be nil. name labels the pool's stats.
func New[T any](name string, newFn func() T) *Pool[T] {
	if newFn == nil {
		panic("pool: New requires a constructor")
	}
	return &Pool[T]{name: name, newFn: newFn}
}

// Get acquires a value: a recycled one when available, a fresh one
// otherwise. The caller owns the value until it calls Release.
func (p *Pool[T]) Get() T {
	p.gets.Add(1)
	if v, ok := p.p.Get().(T); ok {
		return v
	}
	p.misses.Add(1)
	return p.newFn()
}

// Release returns v to the free list. v must not be used — through any
// alias — after the call.
func (p *Pool[T]) Release(v T) {
	p.releases.Add(1)
	p.p.Put(v)
}

// Stats returns the pool's traffic counters.
func (p *Pool[T]) Stats() Stats { return p.counters.stats() }

// Size classes for slice pools: powers of two from 1<<minClassBits up to
// 1<<maxClassBits elements. Requests above the top class are served by
// plain allocation and dropped on Release (counted as misses), so a rare
// giant buffer never pins memory in the free list.
const (
	minClassBits = 8
	maxClassBits = 24
	numClasses   = maxClassBits - minClassBits + 1
)

// classFor maps a requested element count to its size class, or -1 when the
// request is above the largest class.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < minClassBits {
		return 0
	}
	if b > maxClassBits {
		return -1
	}
	return b - minClassBits
}

// classCap is the element capacity of class c.
func classCap(c int) int { return 1 << (minClassBits + c) }

// box carries a slice header through sync.Pool without allocating on every
// round trip: full boxes wait in a class's pool, empty boxes are recycled
// through the Slices-wide spare-box pool.
type box[T any] struct{ s []T }

// ClassStats is one size class's traffic.
type ClassStats struct {
	Cap          int // element capacity of the class
	Gets, Misses int64
}

// Slices is a size-classed free list of []T. Get returns a slice with the
// requested length (contents undefined — callers overwrite); Release files
// the slice under the class its capacity fits.
type Slices[T any] struct {
	name                   string
	classes                [numClasses]sync.Pool
	spare                  sync.Pool // empty *box[T]
	classGets, classMisses [numClasses]atomic.Int64
	counters
}

// NewSlices creates a size-classed slice pool labelled name.
func NewSlices[T any](name string) *Slices[T] {
	return &Slices[T]{name: name}
}

// Get acquires a slice of length n (capacity is the class size). The
// contents are undefined: callers must overwrite before reading.
func (p *Slices[T]) Get(n int) []T {
	p.gets.Add(1)
	c := classFor(n)
	if c < 0 {
		p.misses.Add(1)
		return make([]T, n)
	}
	p.classGets[c].Add(1)
	if bx, ok := p.classes[c].Get().(*box[T]); ok {
		s := bx.s
		bx.s = nil
		p.spare.Put(bx)
		return s[:n]
	}
	p.misses.Add(1)
	p.classMisses[c].Add(1)
	return make([]T, n, classCap(c))
}

// Release returns s to the free list. s must not be used — through any
// alias or subslice — after the call. Slices whose capacity matches no
// class (including nil) are dropped.
func (p *Slices[T]) Release(s []T) {
	p.releases.Add(1)
	c := classFor(cap(s))
	if c < 0 || cap(s) < classCap(c) {
		return // odd capacity or above the top class: let the GC have it
	}
	bx, ok := p.spare.Get().(*box[T])
	if !ok {
		bx = new(box[T])
	}
	bx.s = s[:0]
	p.classes[c].Put(bx)
}

// Stats returns the pool's aggregate traffic counters.
func (p *Slices[T]) Stats() Stats { return p.counters.stats() }

// ClassStats returns per-size-class traffic, smallest class first.
func (p *Slices[T]) ClassStats() []ClassStats {
	out := make([]ClassStats, numClasses)
	for c := range out {
		out[c] = ClassStats{
			Cap:    classCap(c),
			Gets:   p.classGets[c].Load(),
			Misses: p.classMisses[c].Load(),
		}
	}
	return out
}

// SetTelemetry exposes the pool's counters in reg: the aggregate gauges of
// every pool plus per-class gauges labelled {pool=name, class=<cap>}.
// nil reg is a no-op.
func (p *Slices[T]) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p.register(reg, p.name)
	for c := 0; c < numClasses; c++ {
		c := c
		lbl := telemetry.Labels{"pool": p.name, "class": fmt.Sprint(classCap(c))}
		reg.GaugeFunc("pool_class_gets", lbl, func() float64 { return float64(p.classGets[c].Load()) })
	}
}

// Bytes is a size-classed []byte pool.
type Bytes = Slices[byte]

// NewBytes creates a byte-slice pool labelled name.
func NewBytes(name string) *Bytes { return NewSlices[byte](name) }

// Int32s is a size-classed []int32 pool (Rabin boundary and LZSS match
// arrays).
type Int32s = Slices[int32]

// NewInt32s creates an int32-slice pool labelled name.
func NewInt32s(name string) *Int32s { return NewSlices[int32](name) }
