package ff

import "sync/atomic"

// mpmcSlot is one cell of the MPMC ring. seq is the slot's generation
// stamp — the Vyukov bounded-queue protocol: a slot at ring position p is
// ready for a producer when seq == p and ready for a consumer when
// seq == p+1; claiming an operation bumps the stamp past the position so the
// other side (and the next generation) can tell the slot's state without
// locks. The atomic stamp publication is also the happens-before edge that
// makes the plain val accesses race-free: a consumer only reads val after
// loading the seq value the producer stored after writing it.
type mpmcSlot[T any] struct {
	seq atomic.Uint64
	val T
}

// MPMC is a bounded lock-free multi-producer/multi-consumer ring queue.
// No farm uses it (each farm worker has its own SPSC output queue); it
// stays for the served-path benchmark's queue row. Any number of goroutines
// may call the producer methods (TryPush/TryPushN/Push) and any number the
// consumer methods (TryPop/TryPopN/PopWait) concurrently.
//
// Close is a producer-side end-of-stream signal for PopWait; it does not
// fence out late pushes — callers stop their producers first.
type MPMC[T any] struct {
	buf  []mpmcSlot[T]
	mask uint64
	// The waiters share the read-mostly line: every push reads notEmpty's
	// count and every pop notFull's, and only a parking goroutine writes.
	notEmpty waiter // parks consumers; woken by every publish
	notFull  waiter // parks producers; woken by every freed slot
	_        cacheLinePad
	head     atomic.Uint64 // next ring position to pop
	_        cacheLinePad
	tail     atomic.Uint64 // next ring position to push
	_        cacheLinePad
	closed   atomic.Bool
	// done is closed by the first Close: a broadcast to every parked
	// PopWait, however many there are.
	done chan struct{}
	spin bool
}

// NewMPMC creates a queue with capacity rounded up to a power of two
// (minimum 2). spinning selects busy-wait backoff for the blocking helpers,
// as for SPSC.
func NewMPMC[T any](capacity int, spinning bool) *MPMC[T] {
	if capacity < 2 {
		capacity = 2
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	q := &MPMC[T]{buf: make([]mpmcSlot[T], c), mask: uint64(c - 1), spin: spinning,
		notEmpty: newWaiter(), notFull: newWaiter(), done: make(chan struct{})}
	for i := range q.buf {
		q.buf[i].seq.Store(uint64(i))
	}
	return q
}

// Cap reports the queue capacity.
func (q *MPMC[T]) Cap() int { return len(q.buf) }

// Len reports an instantaneous element count (approximate under
// concurrency).
func (q *MPMC[T]) Len() int {
	d := q.tail.Load() - q.head.Load()
	if int64(d) < 0 {
		return 0
	}
	return int(d)
}

// TryPush appends v if there is room.
func (q *MPMC[T]) TryPush(v T) bool {
	for {
		t := q.tail.Load()
		s := &q.buf[t&q.mask]
		seq := s.seq.Load()
		if seq == t {
			if q.tail.CompareAndSwap(t, t+1) {
				s.val = v
				s.seq.Store(t + 1)
				q.notEmpty.wake()
				return true
			}
			continue // lost the claim; reload tail
		}
		if seq < t {
			return false // slot still holds the previous generation: full
		}
		// seq > t: another producer advanced tail past our snapshot; retry.
	}
}

// TryPop removes the oldest element if present.
func (q *MPMC[T]) TryPop() (v T, ok bool) {
	for {
		h := q.head.Load()
		s := &q.buf[h&q.mask]
		seq := s.seq.Load()
		if seq == h+1 {
			if q.head.CompareAndSwap(h, h+1) {
				v = s.val
				var zero T
				s.val = zero // release the reference for GC
				s.seq.Store(h + uint64(len(q.buf)))
				q.notFull.wake()
				return v, true
			}
			continue
		}
		if seq < h+1 {
			return v, false // slot not yet published: empty
		}
		// seq > h+1: another consumer advanced head; retry.
	}
}

// TryPushN appends up to len(vs) elements and reports how many were
// enqueued. The burst is claimed with a single tail CAS: the producer scans
// the contiguous run of push-ready slots from its tail snapshot, claims the
// whole run at once, then fills and publishes each slot. Slots observed
// ready cannot change state before the claim — only a producer that wins
// the tail CAS may touch them, and the claim CAS fails if any other
// producer moved first — so the scan never claims a slot it did not see
// free.
func (q *MPMC[T]) TryPushN(vs []T) int {
	n := uint64(len(vs))
	if n == 0 {
		return 0
	}
	for {
		t := q.tail.Load()
		c := uint64(0)
		for c < n && q.buf[(t+c)&q.mask].seq.Load() == t+c {
			c++
		}
		if c == 0 {
			if q.buf[t&q.mask].seq.Load() < t {
				return 0 // full
			}
			continue // stale tail snapshot; retry
		}
		if q.tail.CompareAndSwap(t, t+c) {
			for i := uint64(0); i < c; i++ {
				s := &q.buf[(t+i)&q.mask]
				s.val = vs[i]
				s.seq.Store(t + i + 1)
			}
			q.notEmpty.wake()
			return int(c)
		}
	}
}

// TryPopN removes up to len(dst) of the oldest elements into dst and
// reports how many were transferred, claiming the burst with a single head
// CAS (the consumer-side mirror of TryPushN).
func (q *MPMC[T]) TryPopN(dst []T) int {
	n := uint64(len(dst))
	if n == 0 {
		return 0
	}
	for {
		h := q.head.Load()
		c := uint64(0)
		for c < n && q.buf[(h+c)&q.mask].seq.Load() == h+c+1 {
			c++
		}
		if c == 0 {
			if q.buf[h&q.mask].seq.Load() < h+1 {
				return 0 // empty (or the head slot is mid-publish)
			}
			continue // stale head snapshot; retry
		}
		if q.head.CompareAndSwap(h, h+c) {
			var zero T
			for i := uint64(0); i < c; i++ {
				s := &q.buf[(h+i)&q.mask]
				dst[i] = s.val
				s.val = zero // release the reference for GC
				s.seq.Store(h + i + uint64(len(q.buf)))
			}
			q.notFull.wake()
			return int(c)
		}
	}
}

// Push blocks (spin, yield, park) until v is enqueued.
func (q *MPMC[T]) Push(v T) {
	b := backoff{spin: q.spin}
	for !q.TryPush(v) {
		if b.wait() {
			q.notFull.park(q.hasRoom, nil)
		}
	}
}

// Close marks the stream ended for PopWait and wakes every parked PopWait.
// It does not prevent further pushes; callers must stop their producers
// first (elements pushed before Close remain poppable — PopWait drains the
// queue before reporting end).
func (q *MPMC[T]) Close() {
	if q.closed.CompareAndSwap(false, true) {
		close(q.done)
	}
}

// PopWait blocks until an element is available (returning it with true) or
// the queue is closed and drained (returning the zero value and false).
func (q *MPMC[T]) PopWait() (T, bool) {
	b := backoff{spin: q.spin}
	for {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		if q.closed.Load() {
			// Re-check after observing closed: a push that raced with Close
			// must still be drained, not dropped.
			if v, ok := q.TryPop(); ok {
				return v, true
			}
			var zero T
			return zero, false
		}
		if b.wait() {
			q.notEmpty.park(q.nonEmpty, q.done)
		}
	}
}

// nonEmpty reports whether the head slot is published, the condition a
// TryPop needs.
func (q *MPMC[T]) nonEmpty() bool {
	h := q.head.Load()
	return q.buf[h&q.mask].seq.Load() >= h+1
}

// hasRoom reports whether the tail slot is free, the condition a TryPush
// needs.
func (q *MPMC[T]) hasRoom() bool {
	t := q.tail.Load()
	return q.buf[t&q.mask].seq.Load() >= t
}
