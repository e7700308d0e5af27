package des

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeAdd(t *testing.T) {
	tests := []struct {
		t    Time
		d    Duration
		want Time
	}{
		{0, 0, 0},
		{0, time.Second, 1e9},
		{5, -3, 5},
		{MaxTime, time.Hour, MaxTime},
		{MaxTime - 1, 2, MaxTime},
	}
	for _, tc := range tests {
		if got := tc.t.Add(tc.d); got != tc.want {
			t.Errorf("Time(%d).Add(%v) = %d, want %d", tc.t, tc.d, got, tc.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := Time(2_500_000_000).Seconds(); got != 2.5 {
		t.Fatalf("Seconds() = %v, want 2.5", got)
	}
}

func TestWaitAdvancesClock(t *testing.T) {
	s := New()
	var at Time
	s.Spawn("w", func(p *Proc) {
		p.Wait(10 * time.Millisecond)
		at = p.Now()
	})
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if at != Time(10*time.Millisecond) {
		t.Errorf("woke at %d, want %d", at, 10*time.Millisecond)
	}
	if end != at {
		t.Errorf("end time %d != wake time %d", end, at)
	}
}

func TestWaitZeroAndNegative(t *testing.T) {
	s := New()
	order := []string{}
	s.Spawn("a", func(p *Proc) {
		p.Wait(0)
		order = append(order, "a")
	})
	s.Spawn("b", func(p *Proc) {
		p.Wait(-5)
		order = append(order, "b")
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("both processes should run, got %v", order)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	// Two identical runs must produce identical event orders.
	run := func() []string {
		s := New()
		var log []string
		for i := 0; i < 5; i++ {
			i := i
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Wait(Duration(i+1) * time.Microsecond)
					log = append(log, fmt.Sprintf("p%d@%d", i, p.Now()))
				}
			})
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestEventFireAndWait(t *testing.T) {
	s := New()
	ev := s.NewEvent("go")
	var got interface{}
	var at Time
	s.Spawn("waiter", func(p *Proc) {
		got = ev.Wait(p)
		at = p.Now()
	})
	s.Spawn("firer", func(p *Proc) {
		p.Wait(3 * time.Millisecond)
		ev.Fire(42)
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("event value = %v, want 42", got)
	}
	if at != Time(3*time.Millisecond) {
		t.Errorf("waiter woke at %d, want 3ms", at)
	}
	if !ev.Fired() || ev.At() != at || ev.Value() != 42 {
		t.Errorf("event state wrong: fired=%v at=%d val=%v", ev.Fired(), ev.At(), ev.Value())
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	s := New()
	ev := s.NewEvent("pre")
	var got interface{}
	s.Spawn("p", func(p *Proc) {
		ev.Fire("x")
		got = ev.Wait(p) // already fired: returns immediately
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "x" {
		t.Errorf("got %v, want x", got)
	}
}

func TestEventDoubleFirePanics(t *testing.T) {
	s := New()
	ev := s.NewEvent("once")
	defer func() {
		if recover() == nil {
			t.Fatal("double Fire should panic")
		}
	}()
	ev.Fire(nil)
	ev.Fire(nil)
}

func TestEventFireAt(t *testing.T) {
	s := New()
	ev := s.NewEvent("later")
	var at Time
	s.Spawn("w", func(p *Proc) {
		ev.Wait(p)
		at = p.Now()
	})
	ev.FireAt(7*time.Millisecond, nil)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(7*time.Millisecond) {
		t.Errorf("woke at %d, want 7ms", at)
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 4)
	var got []int
	s.Spawn("prod", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Put(p, i)
		}
		q.Close()
	})
	s.Spawn("cons", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	// With capacity 1 and a slow consumer, the producer must block: total
	// production time is governed by consumption rate.
	s := New()
	q := NewQueue[int](s, "q", 1)
	var prodDone Time
	s.Spawn("prod", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
		}
		prodDone = p.Now()
		q.Close()
	})
	s.Spawn("cons", func(p *Proc) {
		for {
			_, ok := q.Get(p)
			if !ok {
				return
			}
			p.Wait(10 * time.Millisecond)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Producer's 5th Put cannot complete before the consumer has freed
	// 4 slots: >= 3 consumption delays must have elapsed.
	if prodDone < Time(30*time.Millisecond) {
		t.Errorf("producer finished at %v, expected backpressure to delay it past 30ms", prodDone)
	}
}

func TestQueueCloseWakesGetters(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 1)
	gotOK := true
	s.Spawn("cons", func(p *Proc) {
		_, gotOK = q.Get(p)
	})
	s.Spawn("closer", func(p *Proc) {
		p.Wait(time.Millisecond)
		q.Close()
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gotOK {
		t.Error("Get on closed empty queue should report ok=false")
	}
}

func TestQueueCloseIdempotent(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 1)
	s.Spawn("p", func(p *Proc) {
		q.Close()
		q.Close() // second close is a no-op
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDrainAfterClose(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 4)
	var got []int
	s.Spawn("p", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Close()
		for {
			v, ok := q.Get(p)
			if !ok {
				break
			}
			got = append(got, v)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("drain got %v, want [1 2]", got)
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 2)
	var count int
	for c := 0; c < 3; c++ {
		s.Spawn(fmt.Sprintf("cons%d", c), func(p *Proc) {
			for {
				_, ok := q.Get(p)
				if !ok {
					return
				}
				count++
				p.Wait(time.Millisecond)
			}
		})
	}
	s.Spawn("prod", func(p *Proc) {
		for i := 0; i < 12; i++ {
			q.Put(p, i)
		}
		q.Close()
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 12 {
		t.Errorf("consumed %d, want 12", count)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	s := New()
	r := NewResource(s, "engine", 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		s.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Wait(time.Millisecond)
			inside--
			r.Release(p, 1)
		})
	}
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Errorf("max concurrent holders = %d, want 1", maxInside)
	}
	if end != Time(4*time.Millisecond) {
		t.Errorf("serialized holds should end at 4ms, got %v", end)
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	s := New()
	r := NewResource(s, "engines", 2)
	for i := 0; i < 4; i++ {
		s.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 1, time.Millisecond)
		})
	}
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 4 one-ms holds on 2 units: 2ms total.
	if end != Time(2*time.Millisecond) {
		t.Errorf("end = %v, want 2ms", end)
	}
}

func TestResourceFIFONoStarvation(t *testing.T) {
	// A big request queued first must be served before small later ones.
	s := New()
	r := NewResource(s, "mem", 4)
	var order []string
	s.Spawn("hog", func(p *Proc) {
		r.Acquire(p, 3)
		p.Wait(time.Millisecond)
		r.Release(p, 3)
	})
	s.Spawn("big", func(p *Proc) {
		p.Wait(time.Microsecond)
		r.Acquire(p, 4)
		order = append(order, "big")
		r.Release(p, 4)
	})
	s.Spawn("small", func(p *Proc) {
		p.Wait(2 * time.Microsecond)
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(p, 1)
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" {
		t.Errorf("order = %v, want big before small (FIFO)", order)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "never", 1)
	s.Spawn("stuck", func(p *Proc) {
		q.Get(p) // nobody will ever Put
	})
	_, err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestRunTwiceErrors(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) {})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run should error")
	}
}

func TestAfterCallbackOrder(t *testing.T) {
	s := New()
	var order []int
	s.After(2*time.Millisecond, func() { order = append(order, 2) })
	s.After(1*time.Millisecond, func() { order = append(order, 1) })
	s.After(1*time.Millisecond, func() { order = append(order, 11) }) // same time: schedule order
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	s := New()
	var childAt Time
	s.Spawn("parent", func(p *Proc) {
		p.Wait(time.Millisecond)
		s.Spawn("child", func(c *Proc) {
			c.Wait(time.Millisecond)
			childAt = c.Now()
		})
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != Time(2*time.Millisecond) {
		t.Errorf("child finished at %v, want 2ms", childAt)
	}
}

// Property: for any sequence of puts with any queue capacity and any
// consumer delay, the consumer receives exactly the produced sequence.
func TestQueuePreservesSequenceProperty(t *testing.T) {
	f := func(vals []int16, capSeed uint8, delaySeed uint8) bool {
		capacity := int(capSeed)%8 + 1
		delay := Duration(delaySeed%50) * time.Microsecond
		s := New()
		q := NewQueue[int16](s, "q", capacity)
		var got []int16
		s.Spawn("prod", func(p *Proc) {
			for _, v := range vals {
				q.Put(p, v)
			}
			q.Close()
		})
		s.Spawn("cons", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
				p.Wait(delay)
			}
		})
		if _, err := s.Run(); err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: resource accounting never exceeds capacity and always returns to
// zero after a random workload.
func TestResourceAccountingProperty(t *testing.T) {
	f := func(seed int64, capSeed uint8, nProcs uint8) bool {
		capacity := int(capSeed)%6 + 1
		procs := int(nProcs)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		holds := make([][2]int, procs) // units, duration µs
		for i := range holds {
			holds[i] = [2]int{rng.Intn(capacity) + 1, rng.Intn(100)}
		}
		s := New()
		r := NewResource(s, "r", capacity)
		violated := false
		for i := 0; i < procs; i++ {
			h := holds[i]
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				r.Acquire(p, h[0])
				if r.InUse() > r.Cap() {
					violated = true
				}
				p.Wait(Duration(h[1]) * time.Microsecond)
				r.Release(p, h[0])
			})
		}
		if _, err := s.Run(); err != nil {
			return false
		}
		return !violated && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the makespan of n exclusive 1ms holds on a k-unit resource is
// ceil(n/k) ms — the list-scheduling bound for identical tasks.
func TestResourceMakespanProperty(t *testing.T) {
	f := func(nSeed, kSeed uint8) bool {
		n := int(nSeed)%12 + 1
		k := int(kSeed)%4 + 1
		s := New()
		r := NewResource(s, "r", k)
		for i := 0; i < n; i++ {
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				r.Use(p, 1, time.Millisecond)
			})
		}
		end, err := s.Run()
		if err != nil {
			return false
		}
		want := Time((n + k - 1) / k * int(time.Millisecond))
		return end == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkQueueThroughput(b *testing.B) {
	s := New()
	q := NewQueue[int](s, "q", 64)
	n := b.N
	s.Spawn("prod", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.Put(p, i)
		}
		q.Close()
	})
	s.Spawn("cons", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	b.ResetTimer()
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEventFanout(b *testing.B) {
	s := New()
	ev := s.NewEvent("go")
	for i := 0; i < b.N; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) { ev.Wait(p) })
	}
	ev.FireAt(time.Millisecond, nil)
	b.ResetTimer()
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
