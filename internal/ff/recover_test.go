package ff

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// failInit is a node whose Init always fails.
type failInit struct {
	err error
}

func (f failInit) Init() error      { return f.err }
func (f failInit) Svc(task any) any { return task }

func TestInitializerErrorAbortsRun(t *testing.T) {
	boom := errors.New("no device")
	var emitted atomic.Int64
	i := 0
	src := Source(func() (any, bool) {
		if i >= 1_000_000 {
			return nil, false
		}
		i++
		emitted.Add(1)
		return i, true
	})
	err := NewPipeline(src, failInit{err: boom}, Sink(func(any) {})).Run()
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want wrapped %v", err, boom)
	}
	if n := emitted.Load(); n >= 1_000_000 {
		t.Errorf("source ran to completion (%d items) despite init failure", n)
	}
}

func TestFarmWorkerInitErrorAborts(t *testing.T) {
	boom := errors.New("worker init failed")
	workers := []Node{failInit{err: boom}, F(func(task any) any { return task })}
	err := NewPipeline(SliceSource(seq(100)), NewFarm(workers), Sink(func(any) {})).Run()
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want wrapped %v", err, boom)
	}
}

func TestSvcPanicReported(t *testing.T) {
	i := 0
	src := Source(func() (any, bool) {
		i++
		return i, i <= 1_000_000
	})
	mid := F(func(task any) any {
		if task.(int) == 5 {
			panic("stage exploded")
		}
		return task
	})
	err := NewPipeline(src, mid, Sink(func(any) {})).Run()
	if err == nil || !strings.Contains(err.Error(), "stage exploded") {
		t.Fatalf("Run = %v, want panic error", err)
	}
}

func TestFarmWorkerPanicReported(t *testing.T) {
	workers := make([]Node, 4)
	for w := range workers {
		workers[w] = F(func(task any) any {
			if task.(int) == 17 {
				panic("worker exploded")
			}
			return task
		})
	}
	err := NewPipeline(SliceSource(seq(1000)), NewFarm(workers), Sink(func(any) {})).Run()
	if err == nil || !strings.Contains(err.Error(), "worker exploded") {
		t.Fatalf("Run = %v, want panic error", err)
	}
}

func TestSvcErrorValueCancelsStream(t *testing.T) {
	boom := errors.New("bad item")
	i := 0
	src := Source(func() (any, bool) {
		i++
		return i, i <= 1_000_000
	})
	mid := F(func(task any) any {
		if task.(int) == 3 {
			return boom
		}
		return task
	})
	err := NewPipeline(src, mid, Sink(func(any) {})).Run()
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want wrapped %v", err, boom)
	}
	if i >= 1_000_000 {
		t.Error("source was not canceled after the node failure")
	}
}

func TestFarmWorkerMidStreamEOSDrains(t *testing.T) {
	// One worker terminates the stream after a few items; the farm must
	// drain and complete without deadlock, with no error.
	var processed atomic.Int64
	workers := make([]Node, 3)
	for w := range workers {
		w := w
		n := 0
		workers[w] = F(func(task any) any {
			n++
			if w == 0 && n > 5 {
				return EOS
			}
			processed.Add(1)
			return task
		})
	}
	done := make(chan error, 1)
	go func() {
		done <- NewPipeline(SliceSource(seq(10000)), NewFarm(workers), Sink(func(any) {})).Run()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("farm deadlocked after mid-stream EOS from a worker")
	}
	if processed.Load() == 0 {
		t.Error("no items processed")
	}
}

func TestRunContextDeadlineOnStuckStage(t *testing.T) {
	block := make(chan struct{}) // closed only after the assertion: stuck while it matters
	defer close(block)           // let the abandoned pipeline drain so it doesn't outlive the test
	stuck := F(func(task any) any {
		<-block
		return task
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := NewPipeline(SliceSource(seq(10)), stuck, Sink(func(any) {})).RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = %v, want deadline exceeded", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("RunContext took %v; the stuck stage hung the caller", el)
	}
}

func TestRunContextCancelMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var sunk atomic.Int64
	i := 0
	src := Source(func() (any, bool) {
		i++
		time.Sleep(time.Millisecond)
		return i, true // endless: only cancellation ends this stream
	})
	sink := Sink(func(any) {
		if sunk.Add(1) == 3 {
			cancel()
		}
	})
	err := NewPipeline(src, F(func(t any) any { return t }), sink).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
}

func TestPipelineCancelStopsEndlessSource(t *testing.T) {
	var p *Pipeline
	var sunk atomic.Int64
	i := 0
	src := Source(func() (any, bool) {
		i++
		return i, true // endless
	})
	sink := Sink(func(any) {
		if sunk.Add(1) == 100 {
			p.Cancel()
		}
	})
	p = NewPipeline(src, sink)
	done := make(chan error, 1)
	go func() { done <- p.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v, want nil after plain Cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Cancel did not stop the endless source")
	}
}

func TestNestedPipelinePanicReported(t *testing.T) {
	inner := NewPipeline(
		F(func(task any) any { return task.(int) * 2 }),
		F(func(task any) any {
			if task.(int) == 8 {
				panic("inner stage exploded")
			}
			return task
		}),
	)
	err := NewPipeline(SliceSource(seq(100)), inner, Sink(func(any) {})).Run()
	if err == nil || !strings.Contains(err.Error(), "inner stage exploded") {
		t.Fatalf("Run = %v, want inner panic error", err)
	}
}

// seq returns [1, 2, ..., n].
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i + 1
	}
	return s
}
