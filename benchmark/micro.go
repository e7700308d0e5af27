package main

import (
	"fmt"
	"sync"
	"time"

	"streamgpu/internal/ff"
	"streamgpu/internal/server/qos"
)

// The queue and scheduler rows cost a few hundred nanoseconds per item, far
// below what one span per call could resolve, so each is one span around a
// fixed number of items. They exist so that a queue consolidation can show
// it lost nothing.
const (
	spSPSC  = "ff.SPSC transfer"
	spMPMC  = "ff.MPMC transfer"
	spFarm  = "ff.Farm pass"
	spSched = "qos.Sched round trips"

	queueItems = 1 << 18
	farmItems  = 1 << 16
	schedItems = 1 << 16
)

// transfer moves n items from a producer goroutine to this one.
func transfer(n int, push func(int64), pop func() int64) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			push(int64(i))
		}
	}()
	for i := 0; i < n; i++ {
		pop()
	}
	wg.Wait()
}

// micro times the queue layer and the scheduler with no-op work and returns
// nanoseconds per item by span name. The scheduler's items carry no deadline:
// the row is the cost of a round trip, and an expired item takes another path.
func micro(tr *tracer) (map[string]float64, error) {
	perItem := make(map[string]float64)
	timed := func(name string, items int, fn func()) {
		start := time.Now()
		call(tr, name, 0, -1, fn)
		perItem[name] = float64(time.Since(start).Nanoseconds()) / float64(items)
	}

	spsc := ff.NewSPSC[int64](1024, false)
	timed(spSPSC, queueItems, func() { transfer(queueItems, spsc.Push, spsc.Pop) })

	mpmc := ff.NewMPMC[int64](1024, false)
	timed(spMPMC, queueItems, func() {
		transfer(queueItems, mpmc.Push, func() int64 { v, _ := mpmc.PopWait(); return v })
	})

	var farmErr error
	timed(spFarm, farmItems, func() {
		next := 0
		noop := func(task any) any { return task }
		farmErr = ff.NewPipeline(
			ff.Source(func() (any, bool) { next++; return next, next <= farmItems }),
			ff.NewFarm([]ff.Node{ff.F(noop), ff.F(noop)}),
			ff.Sink(func(any) {}),
		).Run()
	})
	if farmErr != nil {
		return nil, fmt.Errorf("no-op farm: %w", farmErr)
	}

	sched := qos.NewSched(0, nil, nil)
	item := qos.Item{Cost: 1, Run: func() {}}
	timed(spSched, schedItems, func() {
		for i := 0; i < schedItems; i++ {
			sched.Enqueue(1, item)
			sched.Next()
		}
	})
	sched.Close()
	return perItem, nil
}
