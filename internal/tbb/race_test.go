package tbb

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestSchedulerStealStress hammers the scheduler from several external
// producers at once (Group.Go) while every task spawns a child into its
// worker's local deque (Group.SpawnIn), so owner pops and thief steals race
// continuously on the Chase–Lev slots. The assertion is exactness — every task runs exactly once; under
// `go test -race` the same run also proves the deque and scheduler atomics
// publish task closures safely (the tbb runtime sat outside the original
// race-enabled package set).
func TestSchedulerStealStress(t *testing.T) {
	const producers = 4
	const perProducer = 2000
	s := NewScheduler(4)
	defer s.Shutdown()
	var executed atomic.Int64
	var wg sync.WaitGroup
	g := s.NewGroup()
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				g.Go(func(w *Worker) {
					executed.Add(1)
					g.SpawnIn(w, func(*Worker) { executed.Add(1) })
				})
			}
		}()
	}
	wg.Wait()
	g.Wait()
	if got, want := executed.Load(), int64(2*producers*perProducer); got != want {
		t.Errorf("executed %d tasks, want %d (lost or duplicated under stealing)", got, want)
	}
}

// TestPipelineStressUnderContention runs several tbb pipelines concurrently
// on one scheduler, mixing serial and parallel filters, so pipeline token
// accounting and filter state are exercised across workers.
func TestPipelineStressUnderContention(t *testing.T) {
	s := NewScheduler(4)
	defer s.Shutdown()
	const pipelines = 4
	const items = 500
	var wg sync.WaitGroup
	for pi := 0; pi < pipelines; pi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := 0
			var sum atomic.Int64
			src := NewFilter(SerialInOrder, func(item any) any {
				if next >= items {
					return nil
				}
				next++
				return next
			})
			mid := NewFilter(Parallel, func(item any) any {
				return item.(int) * 2
			})
			sink := NewFilter(SerialInOrder, func(item any) any {
				sum.Add(int64(item.(int)))
				return nil
			})
			NewPipeline(src, mid, sink).Run(s, 8)
			if got, want := sum.Load(), int64(items*(items+1)); got != want {
				t.Errorf("sum = %d, want %d", got, want)
			}
		}()
	}
	wg.Wait()
}
