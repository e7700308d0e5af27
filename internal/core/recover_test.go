package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestStageErrCancelsStream(t *testing.T) {
	boom := errors.New("device gone")
	var after atomic.Int64
	ts := NewToStream().
		StageErr(func(item any, emit func(any)) error {
			if item.(int) == 3 {
				return boom
			}
			emit(item)
			return nil
		}, Name("fallible")).
		Stage(func(item any, emit func(any)) {
			after.Add(1)
		}, Name("sink"))
	var generated int
	err := ts.Run(func(emit func(any)) {
		for i := 1; i <= 1_000_000; i++ {
			generated = i
			emit(i)
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want wrapped %v", err, boom)
	}
	if generated >= 1_000_000 {
		t.Error("source ran to completion despite the stage error")
	}
}

func TestStagePanicRecovered(t *testing.T) {
	ts := NewToStream().
		Stage(func(item any, emit func(any)) {
			if item.(int) == 7 {
				panic("stage body exploded")
			}
			emit(item)
		}, Replicate(4)).
		Stage(func(item any, emit func(any)) {})
	err := ts.Run(func(emit func(any)) {
		for i := 1; i <= 100_000; i++ {
			emit(i)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "stage body exploded") {
		t.Fatalf("Run = %v, want recovered panic", err)
	}
}

func TestRunContextCancelStopsSource(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	ts := NewToStream().
		Stage(func(item any, emit func(any)) {
			if seen.Add(1) == 5 {
				cancel()
			}
		})
	done := make(chan error, 1)
	go func() {
		done <- ts.RunContext(ctx, func(emit func(any)) {
			i := 0
			for { // endless stream: only cancellation ends it
				i++
				emit(i)
				time.Sleep(100 * time.Microsecond)
			}
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not stop the endless source after cancel")
	}
}

func TestRunContextTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ts := NewToStream().
		Stage(func(item any, emit func(any)) {
			time.Sleep(5 * time.Millisecond)
		})
	err := ts.RunContext(ctx, func(emit func(any)) {
		for i := 0; i < 10_000; i++ {
			emit(i)
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = %v, want deadline exceeded", err)
	}
}
