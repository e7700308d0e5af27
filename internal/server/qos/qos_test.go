package qos

import (
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time                  { return c.t }
func (c *fakeClock) advance(d time.Duration)         { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                       { return &fakeClock{t: time.Unix(1000, 0)} }
func (c *fakeClock) after(d time.Duration) time.Time { return c.t.Add(d) }

func TestParseTable(t *testing.T) {
	cases := []struct {
		in      string
		wantErr bool
		check   func(t *testing.T, tab Table)
	}{
		{in: "", check: func(t *testing.T, tab Table) {
			if got := tab.Spec(99).Weight; got != 1 {
				t.Errorf("default weight = %d, want 1", got)
			}
			if tab.Spec(99).Rate != 0 {
				t.Error("default rate should be unlimited")
			}
		}},
		{in: "7:8", check: func(t *testing.T, tab Table) {
			if got := tab.Spec(7).Weight; got != 8 {
				t.Errorf("tenant 7 weight = %d, want 8", got)
			}
		}},
		{in: "default:2:1e6,9:4:5e5:250000", check: func(t *testing.T, tab Table) {
			if got := tab.Spec(123).Weight; got != 2 {
				t.Errorf("default weight = %d, want 2", got)
			}
			if got := tab.Spec(123).Burst; got != 1e6 {
				t.Errorf("default burst = %g, want rate-derived 1e6", got)
			}
			s := tab.Spec(9)
			if s.Weight != 4 || s.Rate != 5e5 || s.Burst != 250000 {
				t.Errorf("tenant 9 spec = %+v", s)
			}
		}},
		{in: "7", wantErr: true},
		{in: "7:0", wantErr: true},
		{in: "7:-1", wantErr: true},
		{in: "x:1", wantErr: true},
		{in: "7:1:abc", wantErr: true},
		{in: "7:1:1:1:1", wantErr: true},
	}
	for _, tc := range cases {
		tab, err := ParseTable(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseTable(%q): no error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTable(%q): %v", tc.in, err)
			continue
		}
		tc.check(t, tab)
	}
}

func TestBucketRefill(t *testing.T) {
	clk := newFakeClock()
	b := NewBucket(Spec{Rate: 1000, Burst: 500}, clk.now())

	// Burst drains first.
	if !b.Take(500, clk.now()) {
		t.Fatal("full bucket refused its burst")
	}
	if b.Take(1, clk.now()) {
		t.Fatal("empty bucket granted a token")
	}
	// Refill at 1000/s: after 100ms there are 100 tokens.
	clk.advance(100 * time.Millisecond)
	if !b.Take(100, clk.now()) {
		t.Fatal("refill did not credit 100 tokens after 100ms")
	}
	if b.Take(1, clk.now()) {
		t.Fatal("bucket granted beyond refill")
	}
	// Refill caps at burst.
	clk.advance(time.Hour)
	if !b.Take(500, clk.now()) {
		t.Fatal("bucket did not refill to burst")
	}
	if b.Take(1, clk.now()) {
		t.Fatal("bucket exceeded burst after long idle")
	}
}

func TestBucketWait(t *testing.T) {
	clk := newFakeClock()
	b := NewBucket(Spec{Rate: 1000, Burst: 1000}, clk.now())
	if got := b.Wait(100, clk.now()); got != 0 {
		t.Errorf("full bucket wait = %v, want 0", got)
	}
	b.Take(1000, clk.now())
	if got := b.Wait(250, clk.now()); got != 250*time.Millisecond {
		t.Errorf("wait for 250 tokens at 1000/s = %v, want 250ms", got)
	}
	// A cost above burst is reported as the time to fill the bucket, not
	// infinity.
	if got := b.Wait(5000, clk.now()); got != time.Second {
		t.Errorf("oversized cost wait = %v, want 1s (full bucket)", got)
	}
}

func TestBucketUnlimited(t *testing.T) {
	clk := newFakeClock()
	b := NewBucket(Spec{}, clk.now())
	if b.Limited() {
		t.Fatal("zero spec should be unlimited")
	}
	for i := 0; i < 1000; i++ {
		if !b.Take(1<<20, clk.now()) {
			t.Fatal("unlimited bucket refused")
		}
	}
	if b.Wait(1<<30, clk.now()) != 0 {
		t.Fatal("unlimited bucket has nonzero wait")
	}
}

// TestSchedFIFO checks that items leave in Enqueue order whatever tenant
// they are enqueued under: one session's batches reach the ordered pipeline
// in sequence order by construction. Popping three items per four enqueued
// keeps the queue non-empty while its popped prefix is reused.
func TestSchedFIFO(t *testing.T) {
	clk := newFakeClock()
	s := NewSched(0, nil, clk.now)
	var got []int
	next := func() {
		it, _ := s.Next()
		it.Run()
	}
	for i := 0; i < 100; i++ {
		i := i
		s.Enqueue(uint32(i%3), Item{Run: func() { got = append(got, i) }})
		if i%4 == 3 {
			next()
			next()
			next()
		}
	}
	for s.Depth() > 0 {
		next()
	}
	if len(got) != 100 {
		t.Fatalf("dispatched %d of 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d dispatched item %d, want Enqueue order (got %v)", i, v, got)
		}
	}
}

func TestSchedExpiry(t *testing.T) {
	clk := newFakeClock()
	s := NewSched(0, nil, clk.now)
	var ran, expired int
	s.Enqueue(1, Item{Cost: 1, Deadline: clk.after(time.Second),
		Run: func() { ran++ }, Expire: func() { expired++ }})
	s.Enqueue(1, Item{Cost: 1, // zero deadline: never expires
		Run: func() { ran++ }, Expire: func() { t.Error("zero-deadline item expired") }})
	clk.advance(2 * time.Second)
	for s.Depth() > 0 {
		it, _ := s.Next()
		it.Run()
	}
	if ran != 1 || expired != 1 {
		t.Fatalf("ran=%d expired=%d, want 1 and 1", ran, expired)
	}
}

func TestSchedCloseDrops(t *testing.T) {
	clk := newFakeClock()
	s := NewSched(0, nil, clk.now)
	var dropped int
	for i := 0; i < 5; i++ {
		s.Enqueue(1, Item{Cost: 1, Run: func() { t.Error("ran after close") },
			Drop: func() { dropped++ }})
	}
	s.Close()
	if _, ok := s.Next(); ok {
		t.Fatal("Next returned an item after Close")
	}
	if dropped != 5 {
		t.Fatalf("dropped %d of 5", dropped)
	}
	// Enqueue after close drops immediately.
	s.Enqueue(2, Item{Cost: 1, Drop: func() { dropped++ }})
	if dropped != 6 {
		t.Fatal("post-close enqueue was not dropped")
	}
}

func TestSchedBlocksUntilEnqueue(t *testing.T) {
	s := NewSched(0, nil, nil)
	done := make(chan uint32, 1)
	go func() {
		it, ok := s.Next()
		if !ok {
			done <- 0
			return
		}
		it.Run()
	}()
	time.Sleep(10 * time.Millisecond)
	s.Enqueue(7, Item{Cost: 1, Run: func() { done <- 7 }})
	select {
	case got := <-done:
		if got != 7 {
			t.Fatalf("got %d, want 7", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the consumer parked in Next never woke")
	}
	s.Close()
}
