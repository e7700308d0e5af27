package ff

import (
	"fmt"
	"testing"

	"streamgpu/internal/pool"
)

func TestTryPushNPopN(t *testing.T) {
	q := NewSPSC[int](8, false)
	if n := q.TryPushN([]int{1, 2, 3, 4, 5}); n != 5 {
		t.Fatalf("TryPushN = %d, want 5", n)
	}
	// Only 3 slots remain.
	if n := q.TryPushN([]int{6, 7, 8, 9, 10}); n != 3 {
		t.Fatalf("TryPushN into near-full queue = %d, want 3", n)
	}
	if n := q.TryPushN([]int{99}); n != 0 {
		t.Fatalf("TryPushN into full queue = %d, want 0", n)
	}
	dst := make([]int, 4)
	if n := q.TryPopN(dst); n != 4 {
		t.Fatalf("TryPopN = %d, want 4", n)
	}
	for i, want := range []int{1, 2, 3, 4} {
		if dst[i] != want {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want)
		}
	}
	// Pop the rest; the queue holds 4 elements, dst asks for up to 8.
	big := make([]int, 8)
	if n := q.TryPopN(big); n != 4 {
		t.Fatalf("TryPopN = %d, want 4", n)
	}
	for i, want := range []int{5, 6, 7, 8} {
		if big[i] != want {
			t.Fatalf("big[%d] = %d, want %d", i, big[i], want)
		}
	}
	if n := q.TryPopN(big); n != 0 {
		t.Fatalf("TryPopN from empty queue = %d, want 0", n)
	}
}

// TestBatchOpsWraparound pushes and pops bursts across the ring's wrap
// point many times, checking FIFO order survives the index masking.
func TestBatchOpsWraparound(t *testing.T) {
	q := NewSPSC[int](16, false)
	in := make([]int, 5)
	out := make([]int, 5)
	next := 0
	expect := 0
	for round := 0; round < 100; round++ {
		for i := range in {
			in[i] = next
			next++
		}
		if n := q.TryPushN(in); n != 5 {
			t.Fatalf("round %d: TryPushN = %d, want 5", round, n)
		}
		if n := q.TryPopN(out); n != 5 {
			t.Fatalf("round %d: TryPopN = %d, want 5", round, n)
		}
		for _, v := range out {
			if v != expect {
				t.Fatalf("round %d: popped %d, want %d", round, v, expect)
			}
			expect++
		}
	}
}

// TestBatchOpsConcurrent streams a sequence through batched producer and
// consumer goroutines and checks nothing is lost, duplicated or reordered.
func TestBatchOpsConcurrent(t *testing.T) {
	const total = 1 << 16
	q := NewSPSC[int](256, false)
	done := make(chan error, 1)
	go func() {
		buf := make([]int, 32)
		expect := 0
		for expect < total {
			n := q.TryPopN(buf)
			if n == 0 {
				buf[0] = q.Pop()
				n = 1
			}
			for i := 0; i < n; i++ {
				if buf[i] != expect {
					done <- fmt.Errorf("popped %d, want %d", buf[i], expect)
					return
				}
				expect++
			}
		}
		done <- nil
	}()
	buf := make([]int, 32)
	sent := 0
	for sent < total {
		n := len(buf)
		if total-sent < n {
			n = total - sent
		}
		for i := 0; i < n; i++ {
			buf[i] = sent + i
		}
		pushed := q.TryPushN(buf[:n])
		if pushed == 0 {
			q.Push(buf[0])
			pushed = 1
		}
		sent += pushed
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSPSCBatchAllocs pins the batched transfer hot path to zero
// allocations.
func TestSPSCBatchAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	q := NewSPSC[int64](1024, false)
	buf := make([]int64, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		if q.TryPushN(buf) != len(buf) {
			t.Fatal("push failed")
		}
		if q.TryPopN(buf) != len(buf) {
			t.Fatal("pop failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("TryPushN/TryPopN allocate %v per round trip, want 0", allocs)
	}
}

// TestSPSCSingleAllocs pins the single-element ops too: a value type must
// move through the ring without boxing.
func TestSPSCSingleAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	q := NewSPSC[int64](8, false)
	allocs := testing.AllocsPerRun(1000, func() {
		if !q.TryPush(7) {
			t.Fatal("push failed")
		}
		if _, ok := q.TryPop(); !ok {
			t.Fatal("pop failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("TryPush/TryPop allocate %v per round trip, want 0", allocs)
	}
}
