package qos

import (
	"sync"
	"time"
)

// Item is one unit of queued work handed to the scheduler.
type Item struct {
	// Cost is ignored. It remains so existing callers compile; ROADMAP.md
	// item 1 drops it together with the benchmark's use of it.
	Cost int
	// Deadline, when non-zero, is the absolute instant after which
	// dispatching the item is pointless; the scheduler calls Expire instead
	// of Run for overdue items. A zero Deadline marks work that must run
	// regardless of queue age (e.g. a sealed dedup batch, whose bytes are
	// already part of the session's archive stream).
	Deadline time.Time
	// Run dispatches the item. It may block (an emit into a full pipeline
	// queue is the backpressure point). The scheduler's consumer calls it
	// exactly once — in the serving layer, the resident pipeline's source
	// goroutine — unless Expire or Drop is called instead.
	Run func()
	// Expire is called (instead of Run) when Deadline passed while the
	// item was queued. May be nil when Deadline is zero.
	Expire func()
	// Drop is called (instead of Run) when the scheduler shuts down with
	// the item still queued — the forced-drain path. Must release the
	// item's resources and settle its accounting.
	Drop func()
}

// Sched is the FIFO in front of a resident pipeline. Items leave in
// Enqueue order, so one session's batches reach the ordered pipeline in
// sequence order by construction. Per-tenant fairness is decided before an
// item gets here, by admission's weighted window share.
//
// Enqueue may be called from any goroutine and never blocks; Next is
// intended for a single consumer goroutine (the serving layer's pipeline
// source).
type Sched struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Item
	head   int // index of the first live item (amortized pop)
	closed bool
	now    func() time.Time
}

// NewSched builds a scheduler whose clock is now (nil selects time.Now).
// quantum and weight are ignored; they remain so existing callers compile,
// and ROADMAP.md item 1 drops them.
func NewSched(quantum int, weight func(uint32) int, now func() time.Time) *Sched {
	if now == nil {
		now = time.Now
	}
	s := &Sched{now: now}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Enqueue appends one item to the queue; tenant is ignored. Enqueueing
// after Close drops the item immediately.
func (s *Sched) Enqueue(tenant uint32, it Item) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if it.Drop != nil {
			it.Drop()
		}
		return
	}
	if len(s.items) == cap(s.items) && s.head > 0 && 2*s.head >= len(s.items) {
		// Reuse the popped half instead of growing the backing array.
		n := copy(s.items, s.items[s.head:])
		clear(s.items[n:])
		s.items, s.head = s.items[:n], 0
	}
	s.items = append(s.items, it)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Depth returns the number of queued items.
func (s *Sched) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items) - s.head
}

// Close stops the scheduler: Next drains the remaining items (calling their
// Drop instead of Run — the consumer is shutting down) and then reports
// done, on every later call too. Idempotent.
func (s *Sched) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Next blocks until an item is due and returns it, or reports !ok once the
// scheduler is closed. Expired items are settled internally (their Expire
// runs on this goroutine) and never returned. After Close, remaining items
// are settled through Drop and Next reports !ok.
func (s *Sched) Next() (Item, bool) {
	s.mu.Lock()
	for {
		if s.closed {
			rest := s.items[s.head:]
			s.items, s.head = nil, 0
			s.mu.Unlock()
			for _, it := range rest {
				if it.Drop != nil {
					it.Drop()
				}
			}
			return Item{}, false
		}
		if s.head < len(s.items) {
			it := s.items[s.head]
			s.items[s.head] = Item{} // release closures
			s.head++
			if s.head == len(s.items) {
				s.items, s.head = s.items[:0], 0
			}
			s.mu.Unlock()
			if expired(it, s.now()) {
				s.settleExpired(it)
				s.mu.Lock()
				continue
			}
			return it, true
		}
		s.cond.Wait()
	}
}

// settleExpired runs an overdue item's Expire (or Drop) callback.
func (s *Sched) settleExpired(it Item) {
	switch {
	case it.Expire != nil:
		it.Expire()
	case it.Drop != nil:
		it.Drop()
	}
}

func expired(it Item, now time.Time) bool {
	return !it.Deadline.IsZero() && now.After(it.Deadline)
}
