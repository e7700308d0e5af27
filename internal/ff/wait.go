package ff

import (
	"runtime"
	"sync/atomic"
)

// waiter is one side of a queue — not-empty or not-full — that blocked
// callers park on once spinning has not paid off, in place of a timed
// sleep: a parked goroutine costs no CPU and is runnable again a channel
// hand-off (microseconds) after the opposite operation, not a timer tick
// (about a millisecond) later.
//
// The protocol is an event count over Go's sequentially consistent atomics.
// A parker announces itself (parked.Add(1)), re-checks the queue, and only
// then blocks on the wake channel. A waker first publishes (the tail, head
// or slot-sequence store of its push or pop), then reads parked. In the
// single total order of those four operations either the waker's read
// comes after the announce — so it sees parked > 0 and sends a token — or
// it comes before it, and then the publish precedes the parker's re-check,
// which sees the element or the free slot. They cannot both miss. Without
// the re-check an element published between the caller's failed try and the
// announce would find parked == 0 and wake no one.
//
// A wake releases every parked goroutine, not one: MPMC sides have any
// number of waiters, and a burst can satisfy several of them at once. A
// woken goroutine that finds its condition still false only re-checks and
// parks again; it never passes a token on, so two waiters cannot hand one
// back and forth while the queue stays empty. The channel holds one spare
// token for a parker that has announced but not yet reached its receive
// (counted, yet not receiving), so at most one spurious wake is ever
// pending. When that slot is full the send stops: a pending token already
// guarantees that someone re-checks after this publish.
type waiter struct {
	parked atomic.Int32
	ch     chan struct{}
}

func newWaiter() waiter { return waiter{ch: make(chan struct{}, 1)} }

// park blocks the caller until a wake, until done is closed, or — checked
// after announcing — until ready reports true. ready must report whether the
// caller's retry could now succeed; callers loop back to that retry, so a
// return is never a promise that it will.
func (w *waiter) park(ready func() bool, done <-chan struct{}) {
	w.parked.Add(1)
	if !ready() {
		select {
		case <-w.ch:
		case <-done:
		}
	}
	w.parked.Add(-1)
}

// wake releases every parked goroutine. It must follow the caller's publish.
func (w *waiter) wake() {
	if w.parked.Load() != 0 {
		w.wakeAll()
	}
}

func (w *waiter) wakeAll() {
	for n := w.parked.Load(); n > 0; n-- {
		select {
		case w.ch <- struct{}{}:
		default:
			return
		}
	}
}

// backoff is the one wait policy of every blocking queue call: spin, then
// yield the processor, then park on the queue's waiter. Spinning resolves
// the common short wait without a scheduler round trip; a wait that
// outlasts both phases is an idle stage, and parking it frees its core.
// Spinning mode never parks, trading CPU for latency as FastFlow's
// non-blocking mode does.
type backoff struct {
	n    int
	spin bool
}

// wait spends one step of the spin and yield phases and reports whether
// they are exhausted, i.e. whether the caller should park.
func (b *backoff) wait() bool {
	switch {
	case b.n < 64:
		// busy spin
	case b.spin || b.n < 192:
		runtime.Gosched()
	default:
		return true
	}
	b.n++
	return false
}
