package pool

import (
	"runtime"
	"sync"
	"testing"

	"streamgpu/internal/telemetry"
)

func TestPoolReuse(t *testing.T) {
	if RaceEnabled {
		t.Skip("sync.Pool randomizes reuse under -race")
	}
	type thing struct{ n int }
	p := New[*thing]("things", func() *thing { return &thing{} })
	a := p.Get()
	a.n = 7
	p.Release(a)
	b := p.Get()
	if b != a {
		t.Fatalf("expected the released value back, got a fresh one")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Misses != 1 || st.Releases != 1 {
		t.Fatalf("stats = %+v, want gets=2 misses=1 releases=1", st)
	}
}

func TestSlicesClassing(t *testing.T) {
	if RaceEnabled {
		t.Skip("sync.Pool randomizes reuse under -race")
	}
	p := NewInt32s("int32s")
	s := p.Get(300)
	if len(s) != 300 {
		t.Fatalf("len = %d, want 300", len(s))
	}
	if cap(s) != 512 {
		t.Fatalf("cap = %d, want the 512 class", cap(s))
	}
	p.Release(s)
	s2 := p.Get(400)
	if cap(s2) != 512 {
		t.Fatalf("cap = %d, want the recycled 512-class slice", cap(s2))
	}
	st := p.Stats()
	if st.Gets != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want gets=2 misses=1", st)
	}
	cs := p.ClassStats()
	if cs[1].Cap != 512 || cs[1].Gets != 2 || cs[1].Misses != 1 {
		t.Fatalf("class 512 stats = %+v, want gets=2 misses=1", cs[1])
	}
}

func TestSlicesTinyAndHuge(t *testing.T) {
	p := NewBytes("bytes")
	tiny := p.Get(3)
	if len(tiny) != 3 || cap(tiny) != 256 {
		t.Fatalf("tiny len/cap = %d/%d, want 3/256", len(tiny), cap(tiny))
	}
	p.Release(tiny)

	huge := p.Get(1 << 25) // above the top class
	if len(huge) != 1<<25 {
		t.Fatalf("huge len = %d", len(huge))
	}
	p.Release(huge) // dropped, not filed
	if st := p.Stats(); st.Misses < 1 {
		t.Fatalf("expected the huge get to count as a miss, stats = %+v", st)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {256, 0}, {257, 1}, {512, 1}, {513, 2},
		{1 << 20, 12}, {1 << 24, 16}, {1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestSetTelemetry(t *testing.T) {
	reg := telemetry.New()
	p := NewBytes("arena")
	p.SetTelemetry(reg)
	b := p.Get(1024)
	p.Release(b)
	p.Get(1024) // unreleased, so the gets and releases gauges differ below

	snap := reg.Snapshot()
	var gets float64
	for _, m := range snap.Metrics {
		if m.Name == "pool_gets" {
			for _, s := range m.Series {
				if s.Labels["pool"] == "arena" {
					gets = s.Value
				}
			}
		}
	}
	if gets != 2 {
		t.Fatalf("pool_gets gauge = %v, want 2", gets)
	}
}

// TestConcurrent hammers one pool from several goroutines; run under -race
// this checks the free lists are safe for concurrent Get/Release.
func TestConcurrent(t *testing.T) {
	p := NewInt32s("conc")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := p.Get(256 + (seed+i)%1024)
				s[0] = int32(i)
				p.Release(s)
			}
		}(g)
	}
	wg.Wait()
	if st := p.Stats(); st.Gets != 8000 || st.Releases != 8000 {
		t.Fatalf("stats = %+v, want 8000 gets and releases", st)
	}
}

// TestSteadyStateAllocs pins the pooled round trip to zero allocations once
// the free list is warm.
func TestSteadyStateAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	p := NewBytes("steady")
	p.Release(p.Get(4096)) // warm the class and the spare box
	allocs := testing.AllocsPerRun(100, func() {
		s := p.Get(4096)
		p.Release(s)
	})
	if allocs != 0 {
		t.Fatalf("pooled Get/Release allocates %v per op, want 0", allocs)
	}
	runtime.KeepAlive(p)
}
