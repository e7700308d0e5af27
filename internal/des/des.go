// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel drives "processes" — ordinary Go functions running on their own
// goroutines — under a cooperative scheduler: exactly one process executes at
// any instant, and a process hands control back to the scheduler whenever it
// performs a simulated action (waiting for virtual time to pass, blocking on
// a Queue or Resource, waiting for an Event). Virtual time only advances in
// the scheduler, so runs are fully deterministic regardless of host
// scheduling.
//
// Wakeups are granted eagerly by the party that makes progress possible (a
// Release grants capacity to the head waiter, a Get hands queue space to the
// head putter), so every blocked process has exactly one pending wake and
// spurious wakeups cannot occur.
//
// The package is the substrate underneath the GPU device model
// (internal/gpu) and the experiment harness (internal/bench): GPU copy
// engines and streaming-multiprocessor time are Resources and timed waits,
// while pipeline stages of the modelled applications are processes connected
// by bounded Queues.
package des

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start of
// the simulation. Virtual nanoseconds have no relation to host time.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts directly
// from time.Duration.
type Duration = time.Duration

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds renders a Time as fractional seconds, the unit used by the paper's
// plots.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns t advanced by d (negative d counts as zero), saturating at
// MaxTime.
func (t Time) Add(d Duration) Time {
	if d < 0 {
		d = 0
	}
	nt := t + Time(d)
	if nt < t {
		return MaxTime
	}
	return nt
}

// event is a scheduled wakeup. Events with equal time fire in schedule order
// (seq), which keeps runs deterministic.
type event struct {
	at   Time
	seq  int64
	fire func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Sim is a discrete-event simulation. The zero value is not usable; create
// one with New.
type Sim struct {
	now    Time
	seq    int64
	events eventHeap
	// sched receives a token whenever the running process blocks or ends,
	// returning control to the scheduler loop.
	sched chan struct{}
	procs []*Proc
	live  int
	ran   bool
	// terminated marks the post-Run teardown phase: parked processes woken
	// during it unwind via a sentinel panic instead of resuming, so their
	// goroutines exit rather than leak (one engine daemon per simulation
	// adds up fast for callers that run a simulation per batch).
	terminated bool
	// failure records the first process panic; Run surfaces it as an error.
	failure error
}

// terminate is the sentinel yield panics with during teardown; the spawn
// wrapper recognizes it and exits quietly.
type terminate struct{}

// New creates an empty simulation at virtual time zero.
func New() *Sim {
	return &Sim{sched: make(chan struct{})}
}

// Now reports the current virtual time.
func (s *Sim) Now() Time { return s.now }

// schedule registers fn to run at virtual time at (clamped to >= now).
func (s *Sim) schedule(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fire: fn})
}

// After schedules fn to run d from now. fn executes in scheduler context: it
// must not block; it may wake processes or fire events.
func (s *Sim) After(d Duration, fn func()) {
	s.schedule(s.now.Add(d), fn)
}

// Proc is a simulated process. All Proc methods must be called from the
// process's own goroutine (inside the function passed to Spawn).
type Proc struct {
	sim    *Sim
	name   string
	resume chan struct{}
	// blocked describes what the process is waiting on, for deadlock reports.
	blocked string
	// started means the goroutine exists (the spawn event fired); teardown
	// only wakes started processes — an unfired spawn has nothing to join.
	started bool
	ended   bool
	daemon  bool
}

// Name reports the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn creates a process that starts at the current virtual time. The
// function fn runs on its own goroutine under the cooperative scheduler.
// Spawn may be called before Run or from inside a running process.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.spawn(name, fn, false)
}

// SpawnDaemon creates a process that does not keep the simulation alive:
// a daemon blocked forever (e.g. an engine loop waiting for work) is not a
// deadlock, and Run returns normally once only daemons remain. Device
// engines (GPU streams) are daemons.
func (s *Sim) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return s.spawn(name, fn, true)
}

func (s *Sim) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan struct{}), daemon: daemon}
	s.procs = append(s.procs, p)
	if !daemon {
		s.live++
	}
	s.schedule(s.now, func() {
		p.started = true
		// runProc resumes every spawned proc, and Run's teardown drains
		// the stragglers, so this goroutine always ends.
		go func() {
			<-p.resume // wait for first activation
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(terminate); !ok {
						err := fmt.Errorf("des: process %s panicked: %v", p.name, r)
						if s.failure == nil {
							s.failure = err
						}
					}
				}
				p.ended = true
				if !p.daemon {
					s.live--
				}
				s.sched <- struct{}{}
			}()
			if !s.terminated {
				fn(p)
			}
		}()
		s.runProc(p)
	})
	return p
}

// runProc transfers control to p and waits until it yields back. It must be
// called from scheduler context only, and only for a process that is blocked
// in yield (or waiting for its first activation).
func (s *Sim) runProc(p *Proc) {
	p.blocked = ""
	p.resume <- struct{}{}
	<-s.sched
}

// wake schedules p to resume at the current virtual time.
func (s *Sim) wake(p *Proc) {
	s.schedule(s.now, func() { s.runProc(p) })
}

// yield blocks the calling process goroutine and returns control to the
// scheduler. The process resumes when its (single) pending wake fires.
func (p *Proc) yield(why string) {
	p.blocked = why
	p.sim.sched <- struct{}{}
	<-p.resume
	if p.sim.terminated {
		panic(terminate{})
	}
}

// Wait suspends the process for d of virtual time (negative counts as zero).
func (p *Proc) Wait(d Duration) {
	s := p.sim
	s.schedule(s.now.Add(d), func() { s.runProc(p) })
	// A timed wait always has its wake-up scheduled, so it can never appear
	// in a deadlock report: the reason needs no detail worth allocating for.
	p.yield("wait")
}

// teardown wakes every parked process so its goroutine unwinds and exits
// (see terminate). Run defers it, so a finished simulation never leaks
// goroutines — not the engine daemons that legitimately outlive the event
// horizon, and not processes stranded by a failure or deadlock return.
func (s *Sim) teardown() {
	s.terminated = true
	for _, p := range s.procs {
		if p.started && !p.ended {
			p.resume <- struct{}{}
			<-s.sched
		}
	}
}

// Run executes the simulation until no events remain. It returns the final
// virtual time and an error if processes remained blocked with an empty
// event queue (deadlock). All process goroutines have exited by the time
// Run returns.
func (s *Sim) Run() (Time, error) {
	if s.ran {
		return s.now, fmt.Errorf("des: simulation already ran")
	}
	s.ran = true
	defer s.teardown()
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(*event)
		s.now = ev.at
		ev.fire()
		if s.failure != nil {
			return s.now, s.failure
		}
	}
	if s.live > 0 {
		var stuck []string
		for _, p := range s.procs {
			if !p.ended && !p.daemon {
				stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, p.blocked))
			}
		}
		sort.Strings(stuck)
		return s.now, fmt.Errorf("des: deadlock, %d blocked process(es): %v", len(stuck), stuck)
	}
	return s.now, nil
}

// Event is a one-shot signal carrying an optional value. Processes wait on
// it; anyone (process code or scheduler callbacks) fires it once.
type Event struct {
	sim     *Sim
	name    string
	fired   bool
	val     interface{}
	at      Time
	waiters []*Proc
}

// NewEvent creates an unfired event.
func (s *Sim) NewEvent(name string) *Event {
	return &Event{sim: s, name: name}
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Value returns the value passed to Fire (nil before firing).
func (e *Event) Value() interface{} { return e.val }

// At returns the virtual time the event fired (meaningful only after Fired).
func (e *Event) At() Time { return e.at }

// Fire marks the event complete and wakes all waiters at the current virtual
// time. Firing twice panics: events are one-shot by design.
func (e *Event) Fire(val interface{}) {
	if e.fired {
		panic("des: event " + e.name + " fired twice")
	}
	e.fired = true
	e.val = val
	e.at = e.sim.now
	for _, p := range e.waiters {
		e.sim.wake(p)
	}
	e.waiters = nil
}

// FireAt schedules the event to fire d from now.
func (e *Event) FireAt(d Duration, val interface{}) {
	e.sim.After(d, func() { e.Fire(val) })
}

// Wait blocks the process until the event fires and returns the fired value.
// Returns immediately if already fired.
func (e *Event) Wait(p *Proc) interface{} {
	if e.fired {
		return e.val
	}
	e.waiters = append(e.waiters, p)
	p.yield("event " + e.name)
	return e.val
}

// getWaiter is a parked consumer; the producer fills v/ok before waking it.
type getWaiter[T any] struct {
	p  *Proc
	v  T
	ok bool
}

// putWaiter is a parked producer carrying the value it wants to enqueue.
type putWaiter[T any] struct {
	p *Proc
	v T
}

// Queue is a bounded FIFO channel between processes, modelling the
// single-producer/single-consumer queues of FastFlow and the token buffers
// of TBB (multiple producers and consumers are permitted; ordering is FIFO
// per queue). Put blocks when full; Get blocks when empty. Capacity must be
// >= 1.
//
// Invariant: getters wait only while items is empty, and putters wait only
// while items is full, so at most one of the two wait lists is non-empty.
type Queue[T any] struct {
	sim     *Sim
	name    string
	cap     int
	items   []T
	getters []*getWaiter[T]
	putters []*putWaiter[T]
	closed  bool
}

// NewQueue creates a bounded queue with the given capacity (>= 1).
func NewQueue[T any](s *Sim, name string, capacity int) *Queue[T] {
	if capacity < 1 {
		panic("des: queue capacity must be >= 1")
	}
	return &Queue[T]{sim: s, name: name, cap: capacity}
}

// Close marks the queue closed: subsequent Get calls drain remaining items
// then report ok=false. Blocked getters wake with ok=false. Closing with
// blocked putters panics — producers must finish before the queue closes.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	if len(q.putters) > 0 {
		panic("des: close of queue " + q.name + " with blocked producers")
	}
	q.closed = true
	for _, g := range q.getters {
		g.ok = false
		q.sim.wake(g.p)
	}
	q.getters = nil
}

// deliver hands v to a waiting getter if any, otherwise buffers it. Called
// only when there is room or a waiting getter.
func (q *Queue[T]) deliver(v T) {
	if len(q.getters) > 0 {
		g := q.getters[0]
		q.getters = q.getters[1:]
		g.v, g.ok = v, true
		q.sim.wake(g.p)
		return
	}
	q.items = append(q.items, v)
}

// Put appends v, blocking while the queue is full. Putting on a closed queue
// panics.
func (q *Queue[T]) Put(p *Proc, v T) {
	if q.closed {
		panic("des: put on closed queue " + q.name)
	}
	if len(q.items) < q.cap && len(q.putters) == 0 {
		q.deliver(v)
		return
	}
	q.putters = append(q.putters, &putWaiter[T]{p: p, v: v})
	p.yield("put " + q.name)
}

// Get removes and returns the oldest item, blocking while empty. ok is false
// only when the queue is closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	if len(q.items) > 0 {
		v = q.items[0]
		q.items = q.items[1:]
		// Space freed: admit the head putter, if any.
		if len(q.putters) > 0 {
			pw := q.putters[0]
			q.putters = q.putters[1:]
			q.deliver(pw.v)
			q.sim.wake(pw.p)
		}
		return v, true
	}
	if q.closed {
		return v, false
	}
	g := &getWaiter[T]{p: p}
	q.getters = append(q.getters, g)
	p.yield("get " + q.name)
	return g.v, g.ok
}

// resWaiter is a parked Acquire; Release grants capacity before waking it.
type resWaiter struct {
	p *Proc
	n int
}

// Resource is a counted FIFO semaphore: a pool of capacity units that
// processes acquire and release. GPU copy engines and device memory pools
// are Resources. Grants are strictly FIFO: a large request at the head
// blocks smaller later ones (no starvation).
type Resource struct {
	sim     *Sim
	name    string
	cap     int
	inUse   int
	waiters []resWaiter
}

// NewResource creates a resource pool with capacity units.
func NewResource(s *Sim, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("des: resource capacity must be >= 1")
	}
	return &Resource{sim: s, name: name, cap: capacity}
}

// InUse reports currently acquired units.
func (r *Resource) InUse() int { return r.inUse }

// Cap reports the pool capacity.
func (r *Resource) Cap() int { return r.cap }

// Acquire blocks until n units are available and takes them.
func (r *Resource) Acquire(p *Proc, n int) {
	if n < 1 || n > r.cap {
		panic(fmt.Sprintf("des: acquire %d from resource %s (cap %d)", n, r.name, r.cap))
	}
	if len(r.waiters) == 0 && r.cap-r.inUse >= n {
		r.inUse += n
		return
	}
	r.waiters = append(r.waiters, resWaiter{p: p, n: n})
	p.yield("acquire " + r.name)
	// The releasing side already granted our units before waking us.
}

// Release returns n units to the pool. Waiting acquirers are granted in FIFO
// order, each receiving its units before being woken.
func (r *Resource) Release(p *Proc, n int) {
	if n < 1 || r.inUse < n {
		panic(fmt.Sprintf("des: release %d from resource %s (in use %d)", n, r.name, r.inUse))
	}
	r.inUse -= n
	for len(r.waiters) > 0 && r.cap-r.inUse >= r.waiters[0].n {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		r.sim.wake(w.p)
	}
}

// Use acquires n units, holds them for d of virtual time, then releases:
// the common "occupy an engine for the duration of an operation" pattern.
func (r *Resource) Use(p *Proc, n int, d Duration) {
	r.Acquire(p, n)
	p.Wait(d)
	r.Release(p, n)
}
