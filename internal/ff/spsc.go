// Package ff is a FastFlow-style stream-parallel runtime: pipelines and
// farms of nodes running on dedicated goroutines, connected by bounded
// lock-free queues. A pipeline's stages are nodes and farms; those two
// shapes are all the programs here compose, so pipelines do not nest.
//
// The architecture follows FastFlow's building-block model [Aldinucci et
// al.]: every node owns a thread of execution; pipeline stages are joined
// by SPSC queues, and a farm gives each worker one SPSC input queue and one
// SPSC output queue. A blocked queue call spins, yields, then parks until
// the opposite operation wakes it (blocking mode) or keeps yielding
// (spinning mode). The emitter deals round-robin and the collector takes
// results back in the same order, so every farm keeps input order (used by
// Mandelbrot's display stage and Dedup's reorder stage).
package ff

import "sync/atomic"

// cacheLinePad separates hot atomics to avoid false sharing between the
// producer and consumer cores.
type cacheLinePad struct{ _ [64]byte }

// SPSC is a bounded lock-free single-producer/single-consumer ring queue —
// the communication primitive FastFlow builds everything on. Exactly one
// goroutine may call the producer methods (TryPush/Push) and exactly one
// the consumer methods (TryPop/Pop).
type SPSC[T any] struct {
	buf  []T
	mask uint64
	// The waiters share the read-mostly line: every push reads notEmpty's
	// count and every pop notFull's, and only a parking goroutine writes.
	notEmpty waiter // parks the consumer
	notFull  waiter // parks the producer
	_        cacheLinePad
	head     atomic.Uint64 // next slot to read (consumer-owned)
	_        cacheLinePad
	tail     atomic.Uint64 // next slot to write (producer-owned)
	_        cacheLinePad
	// spin selects the wait strategy for the blocking Push/Pop helpers.
	spin bool
}

// NewSPSC creates a queue with capacity rounded up to a power of two
// (minimum 2). spinning selects busy-wait backoff for the blocking helpers;
// otherwise they spin, yield, then park until the other side wakes them
// (FastFlow's blocking mode).
func NewSPSC[T any](capacity int, spinning bool) *SPSC[T] {
	if capacity < 2 {
		capacity = 2
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &SPSC[T]{buf: make([]T, c), mask: uint64(c - 1), spin: spinning,
		notEmpty: newWaiter(), notFull: newWaiter()}
}

// Cap reports the queue capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Len reports an instantaneous element count (approximate under
// concurrency).
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// TryPush appends v if there is room. Producer-side only.
func (q *SPSC[T]) TryPush(v T) bool {
	t := q.tail.Load()
	if t-q.head.Load() >= uint64(len(q.buf)) {
		return false
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	q.notEmpty.wake()
	return true
}

// TryPop removes the oldest element if present. Consumer-side only.
func (q *SPSC[T]) TryPop() (v T, ok bool) {
	h := q.head.Load()
	if h == q.tail.Load() {
		return v, false
	}
	v = q.buf[h&q.mask]
	var zero T
	q.buf[h&q.mask] = zero // release the reference for GC
	q.head.Store(h + 1)
	q.notFull.wake()
	return v, true
}

// TryPushN appends up to len(vs) elements and reports how many were
// enqueued. The whole burst becomes visible with a single tail publish, so
// the per-element atomic cost shrinks with burst size (FastFlow's multipush
// optimization). Producer-side only.
func (q *SPSC[T]) TryPushN(vs []T) int {
	t := q.tail.Load()
	free := uint64(len(q.buf)) - (t - q.head.Load())
	n := uint64(len(vs))
	if n > free {
		n = free
	}
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		q.buf[(t+i)&q.mask] = vs[i]
	}
	q.tail.Store(t + n)
	q.notEmpty.wake()
	return int(n)
}

// TryPopN removes up to len(dst) of the oldest elements into dst and
// reports how many were transferred, publishing the head once for the whole
// burst. Consumer-side only.
func (q *SPSC[T]) TryPopN(dst []T) int {
	h := q.head.Load()
	avail := q.tail.Load() - h
	n := uint64(len(dst))
	if n > avail {
		n = avail
	}
	if n == 0 {
		return 0
	}
	var zero T
	for i := uint64(0); i < n; i++ {
		idx := (h + i) & q.mask
		dst[i] = q.buf[idx]
		q.buf[idx] = zero // release the reference for GC
	}
	q.head.Store(h + n)
	q.notFull.wake()
	return int(n)
}

// Push blocks (spin, yield, park) until v is enqueued.
func (q *SPSC[T]) Push(v T) {
	b := backoff{spin: q.spin}
	for !q.TryPush(v) {
		if b.wait() {
			q.notFull.park(q.hasRoom, nil)
		}
	}
}

// Pop blocks (spin, yield, park) until an element is available.
func (q *SPSC[T]) Pop() T {
	b := backoff{spin: q.spin}
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		if b.wait() {
			q.notEmpty.park(q.nonEmpty, nil)
		}
	}
}

func (q *SPSC[T]) nonEmpty() bool { return q.tail.Load() != q.head.Load() }

func (q *SPSC[T]) hasRoom() bool {
	return q.tail.Load()-q.head.Load() < uint64(len(q.buf))
}
