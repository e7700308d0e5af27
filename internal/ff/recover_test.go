package ff

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

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
	// Worker 0 stops early: by an EOS return, or by an error, mid-stream or
	// on its very first input, before it has answered anything. The farm
	// must drain and complete without deadlock, and only an error surfaces.
	boom := errors.New("bad first item")
	cases := []struct {
		name  string
		after int // inputs worker 0 answers before it stops
		stop  any // what it returns instead
	}{
		{"eos_mid_stream", 5, EOS},
		{"eos_first_input", 0, EOS},
		{"error_first_input", 0, boom},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var processed atomic.Int64
			workers := make([]Node, 3)
			for w := range workers {
				n := 0
				workers[w] = F(func(task any) any {
					n++
					if w == 0 && n > tc.after {
						return tc.stop
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
				if want, _ := tc.stop.(error); !errors.Is(err, want) {
					t.Fatalf("Run = %v, want %v", err, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("farm deadlocked after worker 0 stopped early")
			}
			if tc.stop == EOS && processed.Load() == 0 {
				t.Error("no items processed")
			}
		})
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

// seq returns [1, 2, ..., n].
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i + 1
	}
	return s
}
