package health

import (
	"math"
	"testing"
)

// TestScoreComponents drives the composite score through table-driven signal
// mixes: each signal only participates once it has data, and the weights
// renormalize over the present signals.
func TestScoreComponents(t *testing.T) {
	cases := []struct {
		name     string
		feed     func(s *Scoreboard)
		min, max float64
	}{
		{"no data is presumed healthy", func(s *Scoreboard) {}, 1, 1},
		{"clean window", func(s *Scoreboard) { feed(s, 0, 8, false) }, 1, 1},
		{"quarter fault rate", func(s *Scoreboard) {
			for i := 0; i < 8; i++ {
				s.Record(0, Route{Device: true}, i%4 == 0)
			}
		}, 0.74, 0.76},
		{"failing probes drag a clean window down", func(s *Scoreboard) {
			feed(s, 0, 8, false)
			// Out-of-band probe failures quarantine immediately; the score
			// must reflect both the probe EWMA and the window entries.
			s.RecordProbe(0, false)
		}, 0.3, 0.65},
		{"service at baseline scores full", func(s *Scoreboard) {
			s.SetBaseline(0, 1e-9)
			s.ObserveService(0, 1e-9*1024, 1024)
		}, 1, 1},
		{"service 4x slow scores a quarter on that signal", func(s *Scoreboard) {
			s.SetBaseline(0, 1e-9)
			for i := 0; i < 64; i++ { // let the EWMA converge
				s.ObserveService(0, 4e-9*1024, 1024)
			}
		}, 0.24, 0.30},
		{"faster than baseline is not healthier than healthy", func(s *Scoreboard) {
			s.SetBaseline(0, 1e-9)
			s.ObserveService(0, 0.25e-9*1024, 1024)
		}, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Window: 16, MinSamples: 8})
			tc.feed(s)
			if got := s.Score(0); got < tc.min || got > tc.max {
				t.Fatalf("score = %v, want [%v, %v]", got, tc.min, tc.max)
			}
		})
	}
}

// TestHysteresisNoFlapOnBoundaryScore parks a device exactly in the
// hysteresis band (recovered above the quarantine threshold but below the
// re-admission score) and shows it neither re-admits early nor re-quarantines
// on the next wiggle — the band exists precisely so a boundary device cannot
// flap.
func TestHysteresisNoFlapOnBoundaryScore(t *testing.T) {
	var transitions int
	s := New(Config{
		Window: 8, MinSamples: 4,
		ProbeEvery: 1, ReadmitAfter: 2,
		OnTransition: func(int, bool) { transitions++ },
	})
	feed(s, 0, 8, true)
	if !s.Quarantined(0) || transitions != 1 {
		t.Fatalf("not quarantined after all-fault window (transitions %d)", transitions)
	}
	// Clean probes build a streak past ReadmitAfter, but the window is
	// still majority-fault, so the score sits in the band below readmitScore
	// (0.42, 0.50, 0.58): the device must stay quarantined — streak alone is
	// not enough.
	for i := 0; i < 3; i++ {
		r := s.Route(0)
		if !r.Probe {
			t.Fatalf("probe %d: route = %+v", i, r)
		}
		s.Record(0, r, false)
		if !s.Quarantined(0) {
			t.Fatalf("re-admitted at probe %d with score %v still in the hysteresis band", i, s.Score(0))
		}
	}
	if transitions != 1 {
		t.Fatalf("device flapped: %d transitions", transitions)
	}
	// Enough clean probes push the score past the high-water mark: exactly
	// one re-admission fires, and the fresh window cannot instantly re-trip.
	for i := 0; i < 16 && s.Quarantined(0); i++ {
		s.Record(0, s.Route(0), false)
	}
	if s.Quarantined(0) {
		t.Fatalf("never re-admitted: score %v", s.Score(0))
	}
	if transitions != 2 {
		t.Fatalf("transitions = %d, want exactly 2 (one quarantine, one re-admission)", transitions)
	}
}

// TestReadmitAfterExactlyNCleanProbes pins the streak contract: with the
// score gate already satisfied, re-admission happens on clean probe N, not
// N-1, and a failed probe restarts the count.
func TestReadmitAfterExactlyNCleanProbes(t *testing.T) {
	const n = 3
	s := New(Config{
		Window: 32, MinSamples: 4,
		// A large window over mostly-clean history keeps the score above
		// readmitScore throughout, isolating the streak condition.
		ProbeEvery: 1, ReadmitAfter: n,
	})
	feed(s, 0, 24, false)
	feed(s, 0, 4, true) // 4/28 clean history, then a fault burst
	// Force quarantine via a probe failure (the rate never trips 0.5).
	s.RecordProbe(0, false)
	if !s.Quarantined(0) {
		t.Fatal("failed diagnostic probe did not quarantine")
	}
	for i := 1; i < n; i++ {
		s.Record(0, s.Route(0), false)
		if !s.Quarantined(0) {
			t.Fatalf("re-admitted after only %d clean probes, want %d", i, n)
		}
	}
	s.Record(0, s.Route(0), false)
	if s.Quarantined(0) {
		t.Fatalf("not re-admitted after exactly %d clean probes (score %v)", n, s.Score(0))
	}
	if st := s.Snapshot()[0]; st.Readmits != 1 {
		t.Fatalf("readmits = %d, want 1", st.Readmits)
	}

	// Same again, but a failed probe mid-streak restarts the count.
	s.RecordProbe(0, false)
	if !s.Quarantined(0) {
		t.Fatal("second probe failure did not quarantine")
	}
	s.Record(0, s.Route(0), false)
	s.Record(0, s.Route(0), false)
	s.Record(0, s.Route(0), true) // streak broken at 2
	for i := 0; i < n-1; i++ {
		s.Record(0, s.Route(0), false)
		if !s.Quarantined(0) && i < n-2 {
			t.Fatalf("re-admitted %d probes after a broken streak", i+1)
		}
	}
	if !s.Quarantined(0) {
		// n-1 clean probes since the break: one short.
		t.Fatal("re-admitted one probe early after a broken streak")
	}
	s.Record(0, s.Route(0), false)
	if s.Quarantined(0) {
		t.Fatalf("not re-admitted %d clean probes after the break (score %v)", n, s.Score(0))
	}
}

// TestIdleScoreDecays parks a faulted (but not quarantined) device and shows
// Tick drifts its score back toward neutral: stale bad evidence must not pin
// a device's placement share forever, and ticks must not touch devices that
// saw traffic.
func TestIdleScoreDecays(t *testing.T) {
	s := New(Config{Devices: 2, Window: 8, MinSamples: 8})
	for i := 0; i < 8; i++ {
		s.Record(0, Route{Device: true}, i%3 == 0) // 3 of 8 faults, below the 0.5 threshold
		s.Record(1, Route{Device: true}, i%3 == 0)
	}
	start := s.Score(0)
	if start >= 0.75 {
		t.Fatalf("setup: faulted score = %v, want < 0.75", start)
	}
	prev := start
	for tick := 0; tick < 8; tick++ {
		s.Record(1, Route{Device: true}, tick%3 == 0) // device 1 stays busy, window unchanged
		s.Tick()
		got := s.Score(0)
		if got < prev-1e-12 {
			t.Fatalf("tick %d: idle score fell %v -> %v", tick, prev, got)
		}
		prev = got
	}
	if prev < 1 {
		t.Fatalf("idle device never decayed to neutral: %v (window should have drained)", prev)
	}
	if busy := s.Score(1); math.Abs(busy-start) > 0.25 {
		t.Fatalf("busy device's score moved under idle decay: %v -> %v", start, busy)
	}

	// Service slowness decays too: a device observed 4x slow drifts back
	// toward 1 while idle instead of being condemned by one bad spell.
	s2 := New(Config{})
	s2.SetBaseline(0, 1e-9)
	for i := 0; i < 64; i++ {
		s2.ObserveService(0, 4e-9*1024, 1024)
	}
	low := s2.Score(0)
	for i := 0; i < 12; i++ {
		s2.Tick()
	}
	if got := s2.Score(0); got <= low || got < 0.95 {
		t.Fatalf("slow-service score did not decay while idle: %v -> %v", low, got)
	}
}

// TestHeterogeneousSpecNormalization is the fleet-fairness property: a slow
// device serving exactly at its (slow) baseline must score as healthy as a
// fast device at its baseline, while a fast device degraded to the slow
// device's absolute speed scores poorly — the score measures deviation from
// expectation, not absolute speed.
func TestHeterogeneousSpecNormalization(t *testing.T) {
	const (
		fastPerByte = 1e-9
		slowPerByte = 4e-9 // an honest quarter-speed part
	)
	s := New(Config{Devices: 3})
	s.SetBaseline(0, fastPerByte)
	s.SetBaseline(1, slowPerByte)
	s.SetBaseline(2, fastPerByte)
	for i := 0; i < 64; i++ {
		s.ObserveService(0, fastPerByte*8192, 8192) // fast, healthy
		s.ObserveService(1, slowPerByte*8192, 8192) // slow, healthy
		s.ObserveService(2, slowPerByte*8192, 8192) // fast spec degraded 4x
	}
	if fast, slow := s.Score(0), s.Score(1); fast != slow || slow != 1 {
		t.Fatalf("slow-but-healthy device penalized: fast %v, slow %v", fast, slow)
	}
	if degraded := s.Score(2); degraded > 0.5 {
		t.Fatalf("degraded fast device not penalized: %v", degraded)
	}
}

// TestPlaceWeightsByScore checks the smooth-WRR contract: share tracks
// score, order is deterministic, and a quarantined device receives exactly
// its probe cadence.
func TestPlaceWeightsByScore(t *testing.T) {
	s := New(Config{Devices: 2})
	// Device 1 at half score via the service signal alone: serving at 2× its
	// baseline, with no window entries to trip quarantine.
	s.SetBaseline(1, 1e-9)
	s.ObserveService(1, 2e-9*1024, 1024)
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		dev, r := s.Place()
		if !r.Device || r.Probe {
			t.Fatalf("place %d: route = %+v", i, r)
		}
		counts[dev]++
	}
	// score(0)=1 (no data), score(1)=0.5 → weights 101 vs 51 → ~2:1.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("placement ratio = %v (counts %v), want ~2:1", ratio, counts)
	}

	// Quarantine device 1: placement must send it exactly every
	// ProbeEvery-th opportunity as a probe and everything else to device 0.
	s2 := New(Config{Devices: 2, Window: 4, MinSamples: 4, ProbeEvery: 4, ReadmitAfter: 99})
	feed(s2, 1, 4, true)
	if !s2.Quarantined(1) {
		t.Fatal("setup: device 1 not quarantined")
	}
	probes, normal := 0, 0
	for i := 0; i < 40; i++ {
		dev, r := s2.Place()
		switch {
		case r.Probe:
			if dev != 1 {
				t.Fatalf("probe routed to healthy device %d", dev)
			}
			probes++
		case r.Device:
			if dev != 0 {
				t.Fatalf("normal batch on quarantined device %d", dev)
			}
			normal++
		default:
			t.Fatal("CPU fallback with a healthy device in the pool")
		}
	}
	if probes != 10 || normal != 30 {
		t.Fatalf("probes = %d, normal = %d; want 10/30 at ProbeEvery=4 over 40 placements", probes, normal)
	}
}

// TestPlaceAllQuarantined: with the whole pool quarantined, Place yields the
// CPU fallback between probes and never wedges.
func TestPlaceAllQuarantined(t *testing.T) {
	s := New(Config{Devices: 2, Window: 4, MinSamples: 4, ProbeEvery: 3, ReadmitAfter: 99})
	feed(s, 0, 4, true)
	feed(s, 1, 4, true)
	cpu, probes := 0, map[int]int{}
	for i := 0; i < 30; i++ {
		dev, r := s.Place()
		if r.Probe {
			probes[dev]++
			continue
		}
		if r.Device {
			t.Fatalf("normal batch placed on quarantined device %d", dev)
		}
		cpu++
	}
	if cpu == 0 || probes[0] == 0 || probes[1] == 0 {
		t.Fatalf("cpu = %d, probes = %v: want CPU fallback plus probes on both devices", cpu, probes)
	}
}
