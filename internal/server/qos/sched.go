package qos

import (
	"sync"
	"time"
)

// Item is one unit of queued work handed to the scheduler.
type Item struct {
	// Cost is the item's size in cost units (bytes of work); the deficit
	// round-robin spends tenant deficit on it. Minimum 1.
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

// lane is one tenant's FIFO queue plus its DRR deficit.
type lane struct {
	items   []Item
	head    int // index of the first live item (amortized pop)
	deficit int
}

func (l *lane) empty() bool { return l.head >= len(l.items) }

func (l *lane) push(it Item) { l.items = append(l.items, it) }

func (l *lane) pop() Item {
	it := l.items[l.head]
	l.items[l.head] = Item{} // release closures
	l.head++
	if l.empty() {
		l.items = l.items[:0]
		l.head = 0
	}
	return it
}

// Sched is a deficit-round-robin scheduler over per-tenant FIFO lanes.
//
// Fairness model: each tenant with queued work occupies a slot in the
// round-robin ring. When the consumer's turn reaches a tenant, the
// tenant's deficit is credited quantum × weight cost units, and its queued
// items are dispatched head-first while the deficit covers their cost; the
// unspent remainder carries over to the tenant's next turn, so an item
// larger than one credit accumulates deficit across rounds instead of
// starving (the classic DRR guarantee). A tenant whose lane empties
// forfeits its deficit — idle tenants bank nothing.
//
// Enqueue may be called from any goroutine and never blocks; Next is
// intended for a single consumer goroutine (the serving layer's pipeline
// source). Per-lane FIFO order is preserved end to end, which is what lets
// the serving layer keep one session's batches in archive order while
// interleaving sessions fairly.
type Sched struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lanes  map[uint32]*lane
	ring   []uint32
	cur    int
	fresh  bool // the lane at cur has not been credited this turn
	depth  int
	closed bool

	quantum int
	weight  func(uint32) int
	now     func() time.Time
}

// NewSched builds a scheduler. quantum is the per-weight-unit credit in
// cost units (<= 0 selects 64 KiB); weight maps tenants to their share
// (nil, or non-positive results, mean weight 1); now is the clock (nil
// selects time.Now).
func NewSched(quantum int, weight func(uint32) int, now func() time.Time) *Sched {
	if quantum <= 0 {
		quantum = 64 << 10
	}
	if weight == nil {
		weight = func(uint32) int { return 1 }
	}
	if now == nil {
		now = time.Now
	}
	s := &Sched{
		lanes:   make(map[uint32]*lane),
		quantum: quantum,
		weight:  weight,
		now:     now,
		fresh:   true,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Enqueue appends one item to tenant's lane. Enqueueing after Close drops
// the item immediately.
func (s *Sched) Enqueue(tenant uint32, it Item) {
	if it.Cost < 1 {
		it.Cost = 1
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if it.Drop != nil {
			it.Drop()
		}
		return
	}
	l := s.lanes[tenant]
	if l == nil {
		l = &lane{}
		s.lanes[tenant] = l
	}
	if l.empty() {
		s.ring = append(s.ring, tenant)
	}
	l.push(it)
	s.depth++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Depth returns the number of queued items.
func (s *Sched) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
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
			rest := s.takeAllLocked()
			s.mu.Unlock()
			for _, it := range rest {
				if it.Drop != nil {
					it.Drop()
				}
			}
			return Item{}, false
		}
		if it, ok := s.nextLocked(); ok {
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

// nextLocked advances the DRR state by at most one full round and pops the
// next affordable item, if any lane holds one.
func (s *Sched) nextLocked() (Item, bool) {
	if len(s.ring) == 0 {
		return Item{}, false
	}
	// Every lane in the ring is non-empty (emptied lanes leave the ring),
	// and each full round credits every lane at least quantum, so this loop
	// terminates: within ceil(maxCost/quantum) rounds some head item
	// becomes affordable. The loop — not a per-call credit bound — is what
	// lets an item costlier than one credit accumulate deficit instead of
	// stranding its lane.
	for {
		if s.cur >= len(s.ring) {
			s.cur = 0
		}
		t := s.ring[s.cur]
		l := s.lanes[t]
		if s.fresh {
			w := s.weight(t)
			if w < 1 {
				w = 1
			}
			l.deficit += s.quantum * w
			s.fresh = false
		}
		if !l.empty() && l.deficit >= l.items[l.head].Cost {
			it := l.pop()
			l.deficit -= it.Cost
			s.depth--
			if l.empty() {
				l.deficit = 0
				s.ring = append(s.ring[:s.cur], s.ring[s.cur+1:]...)
				s.fresh = true
				// cur now points at the next lane already.
			}
			return it, true
		}
		// Deficit does not cover the head item: carry it over and serve
		// the next lane.
		s.cur++
		s.fresh = true
	}
}

// takeAllLocked removes every queued item in lane order for shutdown
// settling.
func (s *Sched) takeAllLocked() []Item {
	var out []Item
	for _, t := range s.ring {
		l := s.lanes[t]
		for !l.empty() {
			out = append(out, l.pop())
		}
		l.deficit = 0
	}
	s.ring = s.ring[:0]
	s.depth = 0
	return out
}
