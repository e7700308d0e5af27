package tbb

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"streamgpu/internal/pool"
)

func TestDequeLIFOOwner(t *testing.T) {
	d := newDeque(8)
	order := []int{}
	for i := 0; i < 3; i++ {
		i := i
		if !d.pushBottom(taskCell{fn: func(*Worker) { order = append(order, i) }}) {
			t.Fatal("push failed")
		}
	}
	for i := 0; i < 3; i++ {
		task, ok := d.popBottom()
		if !ok {
			t.Fatal("pop failed")
		}
		task.fn(nil)
	}
	// Owner pops LIFO: 2, 1, 0.
	if order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Errorf("pop order = %v, want [2 1 0]", order)
	}
	if _, ok := d.popBottom(); ok {
		t.Error("pop from empty deque should fail")
	}
}

func TestDequeStealFIFO(t *testing.T) {
	d := newDeque(8)
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		d.pushBottom(taskCell{fn: func(*Worker) { got = append(got, i) }})
	}
	for i := 0; i < 3; i++ {
		task, ok := d.steal()
		if !ok {
			t.Fatal("steal failed")
		}
		task.fn(nil)
	}
	// Thieves steal FIFO: 0, 1, 2.
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("steal order = %v, want [0 1 2]", got)
	}
}

func TestDequeFull(t *testing.T) {
	d := newDeque(4)
	for i := 0; i < 4; i++ {
		if !d.pushBottom(taskCell{fn: func(*Worker) {}}) {
			t.Fatalf("push %d should fit", i)
		}
	}
	if d.pushBottom(taskCell{fn: func(*Worker) {}}) {
		t.Error("push to full deque should fail")
	}
	if d.size() != 4 {
		t.Errorf("size = %d, want 4", d.size())
	}
}

func TestDequeConcurrentOwnerThieves(t *testing.T) {
	// Every task must execute exactly once under owner/thief contention.
	const n = 50000
	d := newDeque(1024)
	var executed atomic.Int64
	var produced atomic.Int64
	var wg sync.WaitGroup

	task := taskCell{fn: func(*Worker) { executed.Add(1) }}
	// Owner: push and pop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for produced.Load() < n {
			if d.pushBottom(task) {
				produced.Add(1)
			}
			if tk, ok := d.popBottom(); ok {
				tk.fn(nil)
			}
		}
		for {
			tk, ok := d.popBottom()
			if !ok {
				break
			}
			tk.fn(nil)
		}
	}()
	// Thieves.
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if tk, ok := d.steal(); ok {
					tk.fn(nil)
				}
				select {
				case <-stop:
					// Final sweep.
					for {
						tk, ok := d.steal()
						if !ok {
							return
						}
						tk.fn(nil)
					}
				default:
				}
			}
		}()
	}
	// Wait for the owner to produce everything, then stop thieves.
	for produced.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	if executed.Load() != n {
		t.Errorf("executed %d tasks, want %d (lost or duplicated under stealing)", executed.Load(), n)
	}
}

func TestSchedulerRunsAllTasks(t *testing.T) {
	s := NewScheduler(4)
	defer s.Shutdown()
	var n atomic.Int64
	g := s.NewGroup()
	for i := 0; i < 1000; i++ {
		g.Go(func(*Worker) { n.Add(1) })
	}
	g.Wait()
	if n.Load() != 1000 {
		t.Errorf("ran %d tasks, want 1000", n.Load())
	}
}

func TestSpawnFromWorker(t *testing.T) {
	s := NewScheduler(4)
	defer s.Shutdown()
	var n atomic.Int64
	g := s.NewGroup()
	g.Go(func(w *Worker) {
		for i := 0; i < 100; i++ {
			g.SpawnIn(w, func(*Worker) { n.Add(1) })
		}
	})
	g.Wait()
	if n.Load() != 100 {
		t.Errorf("ran %d spawned tasks, want 100", n.Load())
	}
}

// TestIdleWorkersDoNotAllocate pins the idle wait to the worker's one
// ticker: four idle workers made about 5 300 allocations in 500 ms when
// each wait built its own timer.
func TestIdleWorkersDoNotAllocate(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	s := NewScheduler(4)
	defer s.Shutdown()
	time.Sleep(10 * time.Millisecond) // past the yield rounds, into the timed waits
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	time.Sleep(500 * time.Millisecond)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n >= 100 {
		t.Errorf("4 idle workers made %d allocations in 500 ms, want < 100", n)
	}
}

func TestPipelineTransforms(t *testing.T) {
	s := NewScheduler(4)
	defer s.Shutdown()
	const n = 200
	i := 0
	var mu sync.Mutex
	var out []int
	p := NewPipeline(
		NewFilter(SerialInOrder, func(any) any {
			if i >= n {
				return nil
			}
			i++
			return i
		}),
		NewFilter(Parallel, func(v any) any { return v.(int) * 2 }),
		NewFilter(SerialInOrder, func(v any) any {
			mu.Lock()
			out = append(out, v.(int))
			mu.Unlock()
			return v
		}),
	)
	p.Run(s, 8)
	if len(out) != n {
		t.Fatalf("got %d outputs, want %d", len(out), n)
	}
	for k, v := range out {
		if v != (k+1)*2 {
			t.Fatalf("out[%d] = %d, want %d (in-order filter saw out-of-order items)", k, v, (k+1)*2)
		}
	}
}

// TestPipelineSerialInOrderExclusive shows a serial-in-order filter runs one
// item at a time with no busy flag: only the item numbered next may enter,
// and next moves only when that item leaves.
func TestPipelineSerialInOrderExclusive(t *testing.T) {
	s := NewScheduler(8)
	defer s.Shutdown()
	const n = 300
	i := 0
	var inside, maxInside, count int32
	p := NewPipeline(
		NewFilter(SerialInOrder, func(any) any {
			if i >= n {
				return nil
			}
			i++
			return i
		}),
		NewFilter(Parallel, func(v any) any { return v }),
		NewFilter(SerialInOrder, func(v any) any {
			in := atomic.AddInt32(&inside, 1)
			for {
				m := atomic.LoadInt32(&maxInside)
				if in <= m || atomic.CompareAndSwapInt32(&maxInside, m, in) {
					break
				}
			}
			runtime.Gosched() // widen the window an overlapping item would need
			atomic.AddInt32(&count, 1)
			atomic.AddInt32(&inside, -1)
			return v
		}),
	)
	p.Run(s, 16)
	if count != n {
		t.Fatalf("serial filter ran %d times, want %d", count, n)
	}
	if maxInside != 1 {
		t.Errorf("serial filter concurrency = %d, want 1", maxInside)
	}
}

func TestPipelineTokenCapLimitsInFlight(t *testing.T) {
	s := NewScheduler(8)
	defer s.Shutdown()
	const n, tokens = 100, 4
	i := 0
	var inFlight, maxInFlight int32
	p := NewPipeline(
		NewFilter(SerialInOrder, func(any) any {
			if i >= n {
				return nil
			}
			i++
			atomic.AddInt32(&inFlight, 1)
			return i
		}),
		NewFilter(Parallel, func(v any) any {
			in := atomic.LoadInt32(&inFlight)
			for {
				m := atomic.LoadInt32(&maxInFlight)
				if in <= m || atomic.CompareAndSwapInt32(&maxInFlight, m, in) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			return v
		}),
		NewFilter(SerialInOrder, func(v any) any {
			atomic.AddInt32(&inFlight, -1)
			return v
		}),
	)
	p.Run(s, tokens)
	if got := atomic.LoadInt32(&maxInFlight); got > tokens {
		t.Errorf("max in-flight items = %d, exceeds token cap %d", got, tokens)
	}
}

func TestPipelineParallelInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("parallel input filter should panic")
		}
	}()
	NewPipeline(
		NewFilter(Parallel, func(any) any { return nil }),
		NewFilter(SerialInOrder, func(v any) any { return v }),
	)
}

func TestPipelineTooShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("single-filter pipeline should panic")
		}
	}()
	NewPipeline(NewFilter(SerialInOrder, func(any) any { return nil }))
}

func TestModeString(t *testing.T) {
	if Parallel.String() != "parallel" || SerialInOrder.String() != "serial_in_order" {
		t.Error("mode strings wrong")
	}
}

// Property: the pipeline is an order-preserving identity for any input
// size, token count, and worker count.
func TestPipelineIdentityProperty(t *testing.T) {
	f := func(nSeed, tokSeed, wSeed uint8) bool {
		n := int(nSeed) % 200
		tokens := int(tokSeed)%16 + 1
		workers := int(wSeed)%6 + 1
		s := NewScheduler(workers)
		defer s.Shutdown()
		i := 0
		var out []int
		p := NewPipeline(
			NewFilter(SerialInOrder, func(any) any {
				if i >= n {
					return nil
				}
				i++
				return i
			}),
			NewFilter(Parallel, func(v any) any { return v }),
			NewFilter(SerialInOrder, func(v any) any {
				out = append(out, v.(int))
				return v
			}),
		)
		p.Run(s, tokens)
		if len(out) != n {
			return false
		}
		for k, v := range out {
			if v != k+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSchedulerTaskOverhead(b *testing.B) {
	s := NewScheduler(0)
	defer s.Shutdown()
	g := s.NewGroup()
	for i := 0; i < b.N; i++ {
		g.Go(func(*Worker) {})
	}
	g.Wait()
}

func BenchmarkPipelineThroughput(b *testing.B) {
	s := NewScheduler(0)
	defer s.Shutdown()
	n := b.N
	i := 0
	p := NewPipeline(
		NewFilter(SerialInOrder, func(any) any {
			if i >= n {
				return nil
			}
			i++
			return i
		}),
		NewFilter(Parallel, func(v any) any { return v }),
		NewFilter(SerialInOrder, func(v any) any { return v }),
	)
	b.ResetTimer()
	p.Run(s, 32)
}
