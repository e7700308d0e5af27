package ff

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"streamgpu/internal/pool"
)

// parkBound is how long a test waits for a goroutine to park or to return
// from a park. Either takes microseconds; the bound only turns a lost
// wake-up into a failure instead of a hung test.
const parkBound = 10 * time.Second

// awaitParked waits until n goroutines have announced themselves on w.
func awaitParked(t *testing.T, w *waiter, n int32) {
	t.Helper()
	deadline := time.Now().Add(parkBound)
	for w.parked.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines parked after %v, want %d", w.parked.Load(), parkBound, n)
		}
		runtime.Gosched()
	}
}

// awaitReturn receives one result from a parked call, failing if the call
// is still parked after parkBound: a wake-up was lost.
func awaitReturn[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(parkBound):
	}
	t.Fatalf("%s still parked after %v: lost wake-up", what, parkBound)
	var zero T
	return zero
}

// TestWaiterRechecksAfterAnnouncing covers an element published after the
// caller's failed try but before it announced itself: the publisher saw no
// parked goroutine and sent no token, so only the re-check can end the park.
func TestWaiterRechecksAfterAnnouncing(t *testing.T) {
	w := newWaiter()
	var ready atomic.Bool
	ready.Store(true)
	w.wake()
	done := make(chan struct{})
	go func() {
		w.park(ready.Load, nil)
		close(done)
	}()
	awaitReturn(t, done, "park on a ready condition")
}

func TestSPSCParkedPopWokenByPush(t *testing.T) {
	q := NewSPSC[int](4, false)
	got := make(chan int)
	go func() { got <- q.Pop() }()
	awaitParked(t, &q.notEmpty, 1)
	q.Push(7)
	if v := awaitReturn(t, got, "Pop"); v != 7 {
		t.Fatalf("Pop = %d, want 7", v)
	}
}

func TestSPSCParkedPushWokenByPop(t *testing.T) {
	q := NewSPSC[int](2, false)
	q.Push(1)
	q.Push(2)
	done := make(chan struct{})
	go func() {
		q.Push(3)
		close(done)
	}()
	awaitParked(t, &q.notFull, 1)
	if v := q.Pop(); v != 1 {
		t.Fatalf("Pop = %d, want 1", v)
	}
	awaitReturn(t, done, "Push")
	if v := q.Pop(); v != 2 {
		t.Fatalf("Pop = %d, want 2", v)
	}
	if v := q.Pop(); v != 3 {
		t.Fatalf("Pop = %d, want 3", v)
	}
}

func TestMPMCParkedPushWokenByPop(t *testing.T) {
	q := NewMPMC[int](2, false)
	q.Push(1)
	q.Push(2)
	done := make(chan struct{})
	go func() {
		q.Push(3)
		close(done)
	}()
	awaitParked(t, &q.notFull, 1)
	if v, ok := q.TryPop(); !ok || v != 1 {
		t.Fatalf("TryPop = (%d, %v), want (1, true)", v, ok)
	}
	awaitReturn(t, done, "Push")
}

// TestMPMCBurstWakesEveryConsumer parks k consumers and publishes k items
// with one TryPushN: every consumer must wake and take one, not just the
// first to be signaled.
func TestMPMCBurstWakesEveryConsumer(t *testing.T) {
	const k = 4
	q := NewMPMC[int](8, false)
	got := make(chan int, k)
	for c := 0; c < k; c++ {
		go func() {
			v, ok := q.PopWait()
			if !ok {
				v = -1
			}
			got <- v
		}()
	}
	awaitParked(t, &q.notEmpty, k)
	if n := q.TryPushN([]int{1, 2, 3, 4}); n != k {
		t.Fatalf("TryPushN = %d, want %d", n, k)
	}
	sum := 0
	for c := 0; c < k; c++ {
		sum += awaitReturn(t, got, "PopWait")
	}
	if sum != 1+2+3+4 {
		t.Fatalf("consumers took items summing to %d, want 10", sum)
	}
}

func TestMPMCCloseWakesParkedPopWait(t *testing.T) {
	const k = 3
	q := NewMPMC[int](4, false)
	got := make(chan bool, k)
	for c := 0; c < k; c++ {
		go func() {
			_, ok := q.PopWait()
			got <- ok
		}()
	}
	awaitParked(t, &q.notEmpty, k)
	q.Close()
	for c := 0; c < k; c++ {
		if awaitReturn(t, got, "PopWait") {
			t.Fatal("PopWait on a closed empty queue returned an item")
		}
	}
}

// TestParkWakeAllocs pins a full park/wake cycle to zero allocations: a
// partner goroutine parks in Pop until the test's Push wakes it, then
// answers on a second queue.
func TestParkWakeAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	ping, pong := NewSPSC[int64](2, false), NewSPSC[int64](2, false)
	go func() {
		for {
			v := ping.Pop()
			pong.Push(v)
			if v < 0 {
				return
			}
		}
	}()
	allocs := testing.AllocsPerRun(50, func() {
		awaitParked(t, &ping.notEmpty, 1)
		ping.Push(1)
		pong.Pop()
	})
	ping.Push(-1)
	pong.Pop()
	if allocs != 0 {
		t.Fatalf("a park/wake cycle allocates %v, want 0", allocs)
	}
}
