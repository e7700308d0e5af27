package tbb

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler runs tasks over a fixed pool of workers with work stealing:
// each worker owns a Chase–Lev deque; idle workers steal from victims and
// fall back to a shared inbox for externally submitted tasks.
type Scheduler struct {
	workers []*Worker
	inbox   chan taskCell
	quit    chan struct{}
	wg      sync.WaitGroup
	pending atomic.Int64 // tasks submitted but not yet finished
	closed  atomic.Bool
	tel     atomic.Pointer[schedTelem]
}

// Worker is one scheduler thread. Tasks receive their executing Worker and
// may spawn children into its local deque with Group.SpawnIn (depth-first
// execution, as TBB's scheduler does for cache locality).
type Worker struct {
	id  int
	s   *Scheduler
	dq  *deque
	rng *rand.Rand
}

// NewScheduler starts n workers (n <= 0 means GOMAXPROCS).
func NewScheduler(n int) *Scheduler {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		inbox: make(chan taskCell, 4096),
		quit:  make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		w := &Worker{id: i, s: s, dq: newDeque(1024), rng: rand.New(rand.NewSource(int64(i)*2654435761 + 1))}
		s.workers = append(s.workers, w)
	}
	for _, w := range s.workers {
		s.wg.Add(1)
		go w.loop()
	}
	return s
}

func (s *Scheduler) submit(c taskCell) {
	if s.closed.Load() {
		panic("tbb: Go after Shutdown")
	}
	s.pending.Add(1)
	s.inbox <- c
}

// spawn pushes a task into the worker's local deque; if it is full the task
// overflows into the shared inbox.
func (w *Worker) spawn(c taskCell) {
	w.s.pending.Add(1)
	if !w.dq.pushBottom(c) {
		if tm := w.s.tel.Load(); tm != nil {
			tm.overflow.Inc()
		}
		w.s.inbox <- c
	}
}

// run executes a task and maintains the pending count. A group task is
// finished in its group only after the count has dropped for it, so a
// returned Group.Wait never sees the scheduler still counting its tasks.
func (w *Worker) run(c taskCell) {
	if tm := w.s.tel.Load(); tm != nil {
		tm.tasks.Inc()
	}
	c.fn(w)
	w.s.pending.Add(-1)
	if c.g != nil {
		c.g.finish()
	}
}

// loop is the worker's scheduling loop: local pop, then steal, then inbox,
// with graduated backoff when idle.
func (w *Worker) loop() {
	defer w.s.wg.Done()
	// One ticker bounds every idle wait, so an idle worker allocates no
	// timer per round.
	tick := time.NewTicker(100 * time.Microsecond)
	defer tick.Stop()
	idle := 0
	for {
		if t, ok := w.dq.popBottom(); ok {
			w.run(t)
			idle = 0
			continue
		}
		if t, ok := w.stealOnce(); ok {
			w.run(t)
			idle = 0
			continue
		}
		select {
		case t := <-w.s.inbox:
			w.run(t)
			idle = 0
			continue
		default:
		}
		// Idle: back off, but keep an eye on the inbox and shutdown.
		idle++
		switch {
		case idle < 16:
			runtime.Gosched()
		default:
			select {
			case t := <-w.s.inbox:
				w.run(t)
				idle = 0
			case <-w.s.quit:
				return
			case <-tick.C:
			}
		}
	}
}

// stealOnce tries each victim once, starting from a random position.
func (w *Worker) stealOnce() (taskCell, bool) {
	n := len(w.s.workers)
	if n <= 1 {
		return taskCell{}, false
	}
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := w.s.workers[(start+i)%n]
		if v == w {
			continue
		}
		if t, ok := v.dq.steal(); ok {
			if tm := w.s.tel.Load(); tm != nil {
				tm.steals.Inc()
			}
			return t, true
		}
	}
	return taskCell{}, false
}

// Quiesce blocks until every submitted task has finished. It must be called
// from outside the pool.
func (s *Scheduler) Quiesce() {
	for s.pending.Load() != 0 {
		runtime.Gosched()
	}
}

// Shutdown stops the workers after draining all pending work. The scheduler
// cannot be reused.
func (s *Scheduler) Shutdown() {
	if s.closed.Swap(true) {
		return
	}
	s.Quiesce()
	close(s.quit)
	s.wg.Wait()
}

// Group tracks completion of a dynamically grown set of tasks
// (tbb::task_group). Wait must be called from outside the pool.
type Group struct {
	s    *Scheduler
	n    atomic.Int64
	done chan struct{}
}

// NewGroup creates an empty group.
func (s *Scheduler) NewGroup() *Group {
	g := &Group{s: s, done: make(chan struct{})}
	g.n.Store(1) // creator's reference, dropped by Wait
	return g
}

// Go submits a task belonging to the group (callable from anywhere,
// including inside group tasks).
func (g *Group) Go(t Task) {
	g.n.Add(1)
	g.s.submit(taskCell{fn: t, g: g})
}

// SpawnIn submits a group task into w's local deque.
func (g *Group) SpawnIn(w *Worker, t Task) {
	g.n.Add(1)
	w.spawn(taskCell{fn: t, g: g})
}

func (g *Group) finish() {
	if g.n.Add(-1) == 0 {
		close(g.done)
	}
}

// Wait blocks until every group task has completed. Call once, from outside
// the pool.
func (g *Group) Wait() {
	g.finish() // drop creator reference
	<-g.done
}
