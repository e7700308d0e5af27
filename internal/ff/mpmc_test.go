package ff

import (
	"fmt"
	"sync"
	"testing"
)

func TestMPMCCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		if got := NewMPMC[int](tc.ask, false).Cap(); got != tc.want {
			t.Errorf("NewMPMC(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestMPMCSingleThreadFIFO(t *testing.T) {
	q := NewMPMC[int](8, false)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	for i := 0; i < 8; i++ {
		if !q.TryPush(i) {
			t.Fatalf("TryPush(%d) failed below capacity", i)
		}
	}
	if q.TryPush(99) {
		t.Fatal("TryPush succeeded on full queue")
	}
	if q.Len() != 8 {
		t.Fatalf("Len() = %d, want 8", q.Len())
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("TryPop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop succeeded on drained queue")
	}
	// Wraparound: the generation stamps must keep working past one lap.
	for lap := 0; lap < 5; lap++ {
		for i := 0; i < 6; i++ {
			q.Push(lap*10 + i)
		}
		for i := 0; i < 6; i++ {
			if v, ok := q.TryPop(); !ok || v != lap*10+i {
				t.Fatalf("lap %d: TryPop = (%d, %v), want (%d, true)", lap, v, ok, lap*10+i)
			}
		}
	}
}

func TestMPMCBurstSingleThread(t *testing.T) {
	q := NewMPMC[int](8, false)
	vs := []int{1, 2, 3, 4, 5}
	if n := q.TryPushN(vs); n != 5 {
		t.Fatalf("TryPushN = %d, want 5", n)
	}
	// Only 3 slots left: a 5-burst must be truncated, not rejected.
	if n := q.TryPushN([]int{6, 7, 8, 9, 10}); n != 3 {
		t.Fatalf("TryPushN on nearly-full queue = %d, want 3", n)
	}
	if n := q.TryPushN([]int{99}); n != 0 {
		t.Fatalf("TryPushN on full queue = %d, want 0", n)
	}
	dst := make([]int, 6)
	if n := q.TryPopN(dst); n != 6 {
		t.Fatalf("TryPopN = %d, want 6", n)
	}
	for i, want := range []int{1, 2, 3, 4, 5, 6} {
		if dst[i] != want {
			t.Fatalf("TryPopN[%d] = %d, want %d", i, dst[i], want)
		}
	}
	if n := q.TryPopN(dst); n != 2 {
		t.Fatalf("TryPopN on tail = %d, want 2", n)
	}
	if dst[0] != 7 || dst[1] != 8 {
		t.Fatalf("tail burst = %v, want [7 8]", dst[:2])
	}
	if n := q.TryPopN(dst); n != 0 {
		t.Fatalf("TryPopN on empty queue = %d, want 0", n)
	}
	if n := q.TryPushN(nil); n != 0 {
		t.Fatalf("TryPushN(nil) = %d, want 0", n)
	}
	if n := q.TryPopN(nil); n != 0 {
		t.Fatalf("TryPopN(nil) = %d, want 0", n)
	}
}

// TestMPMCGrid is the linearizability hammer: every producers×consumers
// combination moves a tagged stream through one queue and checks (a)
// exactly-once delivery of every value, and (b) per-consumer streams from
// any single producer are strictly increasing — the FIFO property the
// Vyukov protocol guarantees (claims are ordered by ring position, and one
// producer's pushes take increasing positions). The capacity-2 runs keep
// both sides waiting on nearly every item, long enough for many waits to
// park, so a lost wake-up hangs them. Run under -race in CI.
func TestMPMCGrid(t *testing.T) {
	perProducer := 2000
	if testing.Short() {
		perProducer = 500
	}
	for _, capacity := range []int{64, 2} {
		for _, np := range []int{1, 2, 4} {
			for _, nc := range []int{1, 2, 4} {
				name := fmt.Sprintf("p%dxc%d", np, nc)
				if capacity != 64 {
					name += fmt.Sprintf("_cap%d", capacity)
				}
				t.Run(name, func(t *testing.T) { mpmcGrid(t, capacity, np, nc, perProducer) })
			}
		}
	}
}

func mpmcGrid(t *testing.T, capacity, np, nc, perProducer int) {
	q := NewMPMC[uint64](capacity, false)
	var pwg, cwg sync.WaitGroup
	// Producers: half push singly, half in bursts, so both claim
	// paths run against each other.
	for p := 0; p < np; p++ {
		p := p
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			if p%2 == 0 {
				for i := 0; i < perProducer; i++ {
					q.Push(uint64(p)<<32 | uint64(i))
				}
				return
			}
			buf := make([]uint64, 7)
			i := 0
			for i < perProducer {
				n := len(buf)
				if perProducer-i < n {
					n = perProducer - i
				}
				for j := 0; j < n; j++ {
					buf[j] = uint64(p)<<32 | uint64(i+j)
				}
				pushed := q.TryPushN(buf[:n])
				if pushed == 0 {
					q.Push(buf[0])
					pushed = 1
				}
				i += pushed
			}
		}()
	}
	got := make([][]uint64, nc)
	for c := 0; c < nc; c++ {
		c := c
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			burst := make([]uint64, 5)
			for {
				// Alternate burst pops with blocking pops so both
				// consumer claim paths are exercised.
				if n := q.TryPopN(burst); n > 0 {
					got[c] = append(got[c], burst[:n]...)
					continue
				}
				v, ok := q.PopWait()
				if !ok {
					return
				}
				got[c] = append(got[c], v)
			}
		}()
	}
	pwg.Wait()
	q.Close()
	cwg.Wait()

	seen := make(map[uint64]int, np*perProducer)
	for c := 0; c < nc; c++ {
		last := make([]int64, np)
		for i := range last {
			last[i] = -1
		}
		for _, v := range got[c] {
			seen[v]++
			p, i := int(v>>32), int64(v&0xffffffff)
			if i <= last[p] {
				t.Fatalf("consumer %d: producer %d value %d arrived after %d (FIFO violation)", c, p, i, last[p])
			}
			last[p] = i
		}
	}
	if len(seen) != np*perProducer {
		t.Fatalf("received %d distinct values, want %d", len(seen), np*perProducer)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %x delivered %d times, want exactly once", v, n)
		}
	}
}

// TestMPMCCloseDrain checks PopWait delivers everything pushed before Close
// (including a push racing the close) before reporting end-of-stream, and
// that it reports end-of-stream promptly on an empty closed queue.
func TestMPMCCloseDrain(t *testing.T) {
	q := NewMPMC[int](16, false)
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	q.Close()
	for i := 0; i < 10; i++ {
		v, ok := q.PopWait()
		if !ok || v != i {
			t.Fatalf("PopWait = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := q.PopWait(); ok {
		t.Fatal("PopWait succeeded on closed drained queue")
	}

	// Concurrent drain: consumers racing Close must between them still
	// deliver every element exactly once.
	q2 := NewMPMC[int](8, false)
	const total = 5000
	var cwg sync.WaitGroup
	counts := make([]int, 4)
	for c := 0; c < 4; c++ {
		c := c
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				if _, ok := q2.PopWait(); !ok {
					return
				}
				counts[c]++
			}
		}()
	}
	for i := 0; i < total; i++ {
		q2.Push(i)
	}
	q2.Close()
	cwg.Wait()
	sum := 0
	for _, n := range counts {
		sum += n
	}
	if sum != total {
		t.Fatalf("drained %d elements, want %d", sum, total)
	}
}
