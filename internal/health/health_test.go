package health

import (
	"sync"
	"testing"
)

// feed records n device-routed outcomes for dev.
func feed(s *Scoreboard, dev, n int, faulted bool) {
	for i := 0; i < n; i++ {
		s.Record(dev, Route{Device: true}, faulted)
	}
}

func TestQuarantineTripsOnFaultRate(t *testing.T) {
	s := New(Config{Window: 10, MinSamples: 10})
	feed(s, 0, 5, false)
	feed(s, 0, 4, true)
	if s.Quarantined(0) {
		t.Fatal("quarantined at 4/9 faults before MinSamples")
	}
	s.Record(0, Route{Device: true}, true) // 5/10 = threshold
	if !s.Quarantined(0) {
		t.Fatal("not quarantined at 5/10 faults with threshold 0.5")
	}
	if got := s.Snapshot()[0]; got.Quarantines != 1 || got.Ops != 10 || got.Faults != 5 {
		t.Fatalf("snapshot = %+v", got)
	}
}

func TestHealthyDeviceStaysBelowThreshold(t *testing.T) {
	s := New(Config{Window: 10, MinSamples: 4})
	for i := 0; i < 100; i++ {
		s.Record(0, Route{Device: true}, i%4 == 0) // 25% fault rate
	}
	if s.Quarantined(0) {
		t.Fatal("quarantined at 25% with threshold 50%")
	}
}

func TestSlidingWindowForgets(t *testing.T) {
	s := New(Config{Window: 8, MinSamples: 8})
	feed(s, 0, 3, true)   // old faults...
	feed(s, 0, 20, false) // ...evicted by a clean run
	s.Record(0, Route{Device: true}, true)
	if s.Quarantined(0) {
		t.Fatal("evicted faults still count")
	}
}

func TestQuarantineRoutingAndReadmission(t *testing.T) {
	var transitions []bool
	s := New(Config{
		Window: 4, MinSamples: 4,
		ProbeEvery: 3, ReadmitAfter: 2,
		OnTransition: func(dev int, q bool) { transitions = append(transitions, q) },
	})
	feed(s, 0, 4, true)
	if !s.Quarantined(0) {
		t.Fatal("not quarantined after all-fault window")
	}

	// While quarantined: two reroutes, then a probe, repeating.
	for cycle := 0; cycle < 2; cycle++ {
		for i := 0; i < 2; i++ {
			if r := s.Route(0); r.Device {
				t.Fatalf("cycle %d: batch %d routed to quarantined device", cycle, i)
			}
		}
		r := s.Route(0)
		if !r.Device || !r.Probe {
			t.Fatalf("cycle %d: third batch not a probe: %+v", cycle, r)
		}
		s.Record(0, r, false)
	}
	// Two clean probes with ReadmitAfter=2 → re-admitted.
	if s.Quarantined(0) {
		t.Fatal("not re-admitted after 2 clean probes")
	}
	if r := s.Route(0); !r.Device || r.Probe {
		t.Fatalf("healthy route = %+v", r)
	}
	st := s.Snapshot()[0]
	if st.Quarantines != 1 || st.Readmits != 1 {
		t.Fatalf("snapshot = %+v", st)
	}
	if len(transitions) != 2 || transitions[0] != true || transitions[1] != false {
		t.Fatalf("transitions = %v, want [true false]", transitions)
	}
	// The window was reset on re-admission: one fault must not re-trip.
	s.Record(0, Route{Device: true}, true)
	if s.Quarantined(0) {
		t.Fatal("pre-quarantine history re-tripped after re-admission")
	}
}

func TestFailedProbeResetsStreak(t *testing.T) {
	s := New(Config{Window: 4, MinSamples: 4, ProbeEvery: 1, ReadmitAfter: 2})
	feed(s, 0, 4, true)
	probe := func(faulted bool) {
		r := s.Route(0)
		if !r.Probe {
			t.Fatalf("expected probe with ProbeEvery=1, got %+v", r)
		}
		s.Record(0, r, faulted)
	}
	probe(false)
	probe(true) // streak broken
	probe(false)
	if !s.Quarantined(0) {
		t.Fatal("re-admitted with a broken clean streak")
	}
	probe(false)
	if s.Quarantined(0) {
		t.Fatal("not re-admitted after 2 consecutive clean probes")
	}
}

func TestDevicesIndependent(t *testing.T) {
	s := New(Config{Devices: 3, Window: 4, MinSamples: 4})
	feed(s, 1, 4, true)
	if s.Quarantined(0) || !s.Quarantined(1) || s.Quarantined(2) {
		t.Fatalf("quarantine leaked across devices: %v %v %v",
			s.Quarantined(0), s.Quarantined(1), s.Quarantined(2))
	}
	if got := s.QuarantinedCount(); got != 1 {
		t.Fatalf("QuarantinedCount = %d, want 1", got)
	}
}

func TestReroutedBatchesNotRecorded(t *testing.T) {
	s := New(Config{Window: 4, MinSamples: 4})
	for i := 0; i < 10; i++ {
		s.Record(0, Route{}, true) // CPU outcomes say nothing about the device
	}
	if s.Quarantined(0) {
		t.Fatal("rerouted outcomes fed the window")
	}
	if st := s.Snapshot()[0]; st.Ops != 0 {
		t.Fatalf("rerouted outcomes counted as ops: %+v", st)
	}
}

func TestOutOfRangeDeviceClamps(t *testing.T) {
	s := New(Config{Devices: 2})
	s.Record(-1, Route{Device: true}, false)
	s.Record(99, Route{Device: true}, false)
	if got := s.Snapshot()[0].Ops; got != 2 {
		t.Fatalf("clamped ops = %d, want 2", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(Config{Devices: 4, Window: 16, MinSamples: 8, ProbeEvery: 2, ReadmitAfter: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				dev := (g + i) % 4
				r := s.Route(dev)
				s.Record(dev, r, i%3 == 0)
			}
		}()
	}
	wg.Wait()
	var ops uint64
	for _, st := range s.Snapshot() {
		ops += st.Ops
	}
	if ops == 0 {
		t.Fatal("no ops recorded")
	}
}
