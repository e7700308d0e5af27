package chaos_test

import (
	"testing"
	"time"

	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/health"
	"streamgpu/internal/loadgen"
	"streamgpu/internal/server"
	"streamgpu/internal/server/qos"
	"streamgpu/internal/testutil"
	"streamgpu/internal/testutil/chaos"
)

func TestMain(m *testing.M) { testutil.Main(m) }

// smallFleet is the 8-tenant small-request fleet every scenario shares: one
// client per tenant, modest payloads, retries that honor the server's hints,
// and full restore verification.
func smallFleet(requests int) loadgen.Config {
	return loadgen.Config{
		Clients:     8,
		Tenants:     8,
		FirstTenant: 1,
		Requests:    requests,
		MinBytes:    1 << 10,
		MaxBytes:    8 << 10,
		Retries:     3,
		BackoffCap:  100 * time.Millisecond,
		Verify:      true,
	}
}

// TestIsolationSLO is the acceptance scenario: a hog tenant offering 10x the
// small fleet's bytes, plus GPU fault injection on one device, must not
// destroy the small tenants' latency — their p99 stays within 3x of a
// no-hog baseline, the *hog* is the tenant that gets throttled, and every
// archive still restores byte-exactly.
func TestIsolationSLO(t *testing.T) {
	testutil.CheckLeaks(t)
	r := chaos.Start(t, 1, server.Config{
		Linger:      time.Millisecond,
		MaxInflight: 32,
		GPU:         true,
		Fleet:       []gpu.DeviceSpec{gpu.TitanXPSpec(), gpu.TitanXPSpec()},
		Faults:      fault.Config{Seed: 11, TransferRate: 0.1, KernelRate: 0.1},
		QoS: qos.Table{
			// Small tenants: weight 4, unlimited rate. The hog (tenant 9):
			// weight 1 and a rate contract far below what it offers.
			Default: qos.Spec{Weight: 4},
			Tenants: map[uint32]qos.Spec{9: {Weight: 1, Rate: 256 << 10, Burst: 64 << 10}},
		},
	})

	requests := chaos.ScaledRequests(32, 8)
	baseline := r.Fleets(smallFleet(requests))[0]
	if baseline.Accepted == 0 || baseline.LatencyP99 <= 0 {
		t.Fatalf("baseline fleet did no work: %s", chaos.Describe("baseline", baseline))
	}

	// Hog: same client count, 10x the payload bytes, one tenant, fewer
	// retries (it is *supposed* to be turned away).
	hogCfg := loadgen.Config{
		Clients:     8,
		Tenants:     1,
		FirstTenant: 9,
		Requests:    requests,
		MinBytes:    10 << 10,
		MaxBytes:    80 << 10,
		Retries:     1,
		BackoffCap:  50 * time.Millisecond,
		Verify:      true,
	}
	reports := r.Fleets(smallFleet(requests), hogCfg)
	small, hog := reports[0], reports[1]
	t.Log(chaos.Describe("baseline", baseline))
	t.Log(chaos.Describe("small", small))
	t.Log(chaos.Describe("hog", hog))

	if small.Accepted == 0 {
		t.Fatalf("small fleet starved under hog: %s", chaos.Describe("small", small))
	}
	if small.LatencyP99 > 3*baseline.LatencyP99 {
		t.Errorf("small p99 %.1fms > 3x no-hog baseline %.1fms",
			small.LatencyP99*1e3, baseline.LatencyP99*1e3)
	}
	// The hog is the throttled party; the small tenants never are.
	if hog.Throttled == 0 {
		t.Errorf("hog saw no tenant-throttled verdicts: %s", chaos.Describe("hog", hog))
	}
	if small.Throttled != 0 {
		t.Errorf("small tenants throttled %d times, want 0", small.Throttled)
	}
}

// TestQuarantineMidStream degrades one device of the pool *between* traffic
// phases: healthy traffic first, then a fault storm that must quarantine the
// device (and only it), then a healed phase in which probe batches re-admit
// it. Archives verify in every phase.
func TestQuarantineMidStream(t *testing.T) {
	testutil.CheckLeaks(t)
	r := chaos.Start(t, 2, server.Config{
		Linger: time.Millisecond,
		GPU:    true,
		Fleet:  []gpu.DeviceSpec{gpu.TitanXPSpec(), gpu.TitanXPSpec()},
		Health: health.Config{Window: 8, MinSamples: 4, ProbeEvery: 2, ReadmitAfter: 2},
	})
	requests := chaos.ScaledRequests(24, 8)

	r.Fleets(smallFleet(requests))
	snap := r.Health().Snapshot()
	if snap[0].Quarantines != 0 || snap[1].Quarantines != 0 {
		t.Fatalf("healthy phase tripped quarantine: %+v", snap)
	}

	r.Degrade(1, fault.Config{Seed: 21, TransferRate: 0.9, KernelRate: 0.9})
	r.Fleets(smallFleet(requests))
	snap = r.Health().Snapshot()
	if snap[1].Quarantines == 0 {
		t.Fatalf("degraded device never quarantined: %+v", snap)
	}
	if snap[0].Quarantines != 0 {
		t.Fatalf("healthy device quarantined alongside the degraded one: %+v", snap)
	}

	r.Heal(1)
	r.Fleets(smallFleet(requests))
	snap = r.Health().Snapshot()
	if snap[1].Readmits == 0 {
		t.Fatalf("healed device never re-admitted: %+v", snap)
	}
	if snap[1].Quarantined {
		t.Fatalf("healed device still quarantined after clean probes: %+v", snap)
	}
}

// TestConnectionDropsDontCorrupt slams abrupt disconnects (some mid-frame)
// into the server while a verifying fleet runs. The dropped sessions' work
// must vanish without corrupting anyone else's archive, and the server must
// still drain cleanly (asserted by the runner's Close cleanup plus the leak
// check).
func TestConnectionDropsDontCorrupt(t *testing.T) {
	testutil.CheckLeaks(t)
	r := chaos.Start(t, 3, server.Config{Linger: time.Millisecond})
	requests := chaos.ScaledRequests(32, 8)

	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drops(10)
	}()
	rep := r.Fleets(smallFleet(requests))[0]
	<-done
	if rep.Accepted == 0 {
		t.Fatalf("fleet did no work amid drops: %s", chaos.Describe("small", rep))
	}
	// Give the dropped sessions' lingering batches a moment to settle, then
	// assert the drain (Close errors the test if it is not clean).
	r.Close()
}
