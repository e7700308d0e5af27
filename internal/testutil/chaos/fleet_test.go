package chaos_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/health"
	"streamgpu/internal/loadgen"
	"streamgpu/internal/server"
	"streamgpu/internal/telemetry"
	"streamgpu/internal/testutil"
	"streamgpu/internal/testutil/chaos"
)

// placedCounts reads the dedup_placed_total counter per placement target
// ("gpu0".."gpuN", "cpu") from the registry, excluding probe batches —
// probes are surveillance of a quarantined device, not served traffic.
func placedCounts(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != "dedup_placed_total" {
			continue
		}
		for _, s := range m.Series {
			if s.Labels["probe"] == "true" {
				continue
			}
			out[s.Labels["device"]] += s.Value
		}
	}
	return out
}

// TestFleetDerateShedsAndReadmits is the fleet chaos acceptance scenario: a
// heterogeneous 4-GPU fleet serves verified traffic, one device derates
// mid-stream (heavy transfer+kernel faults from the next batch on), and the
// scoreboard must quarantine it, placement must shed its share onto the
// healthy devices (visible as a collapse of the device's placement counter,
// not a pile-up of CPU fallbacks), probe batches must keep reaching it, and
// after the device heals it must be re-admitted and serve real traffic
// again. Every archive in every phase restores byte-exactly (loadgen
// Verify), and teardown is leak-clean.
func TestFleetDerateShedsAndReadmits(t *testing.T) {
	testutil.CheckLeaks(t)
	fleet, err := gpu.ParseFleet("titanxp*2,titanxp@clock=0.8,titanxp@gen=2")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	r := chaos.Start(t, 99, server.Config{
		Linger:    time.Millisecond,
		GPU:       true,
		Fleet:     fleet,
		BatchSize: 8 << 10, // ~one batch per request, so the scoreboard sees real traffic
		Metrics:   reg,
		Health: health.Config{
			Window: 8, MinSamples: 4,
			ProbeEvery: 2, ReadmitAfter: 2,
		},
	})
	requests := chaos.ScaledRequests(40, 10)

	// Phase 1: healthy heterogeneous fleet. Every device serves.
	rep := r.Fleets(smallFleet(requests))[0]
	if rep.Accepted == 0 {
		t.Fatalf("healthy phase did no work: %s", chaos.Describe("healthy", rep))
	}
	healthyCounts := placedCounts(reg)
	for dev := 0; dev < len(fleet); dev++ {
		if healthyCounts[fmt.Sprintf("gpu%d", dev)] == 0 {
			t.Fatalf("device %d served nothing on the healthy fleet: %v", dev, healthyCounts)
		}
	}

	// Phase 2: derate gpu1 mid-stream. The injector change lands on its next
	// batch; the scoreboard must quarantine it and shed its share.
	r.Degrade(1, fault.Config{Seed: 7, TransferRate: 0.9, KernelRate: 0.9})
	rep = r.Fleets(smallFleet(requests))[0]
	if rep.Accepted == 0 {
		t.Fatalf("derated phase did no work: %s", chaos.Describe("derated", rep))
	}
	snap := r.Health().Snapshot()
	if snap[1].Quarantines == 0 {
		t.Fatalf("gpu1 never quarantined at 90%% fault rates: %+v", snap[1])
	}
	deratedCounts := placedCounts(reg)
	sickShare := deratedCounts["gpu1"] - healthyCounts["gpu1"]
	var healthyShare float64
	for _, dev := range []int{0, 2, 3} {
		healthyShare += deratedCounts[fmt.Sprintf("gpu%d", dev)] - healthyCounts[fmt.Sprintf("gpu%d", dev)]
	}
	if sickShare*float64(len(fleet)-1) >= healthyShare {
		t.Fatalf("placement did not shed the derated device: gpu1 took %.0f batches vs %.0f on the healthy three",
			sickShare, healthyShare)
	}
	if snap[1].Probes == 0 {
		t.Fatalf("no probe batches reached the quarantined device: %+v", snap[1])
	}

	// Phase 3: heal gpu1. Clean probe batches must earn re-admission, and the
	// device must return to real service.
	r.Heal(1)
	rep = r.Fleets(smallFleet(requests))[0]
	if rep.Accepted == 0 {
		t.Fatalf("healed phase did no work: %s", chaos.Describe("healed", rep))
	}
	snap = r.Health().Snapshot()
	if snap[1].Readmits == 0 {
		t.Fatalf("gpu1 never re-admitted after healing: %+v", snap[1])
	}
	if snap[1].Quarantined {
		t.Fatalf("gpu1 still quarantined after healing: %+v", snap[1])
	}
	healedCounts := placedCounts(reg)
	if healedCounts["gpu1"] <= deratedCounts["gpu1"] {
		t.Fatalf("re-admitted device served nothing: %v -> %v", deratedCounts["gpu1"], healedCounts["gpu1"])
	}
}

// TestFleetPlacementPreservesOrder is the order property: across randomized
// heterogeneous fleets, seeds, and a mid-run derate, score-weighted
// placement must preserve every session's batch order — each archive
// restores to exactly the bytes that session sent, in order (loadgen's
// Verify recomputes the restore). Payloads span several batches per request
// so reordering between in-flight batches would corrupt restores.
func TestFleetPlacementPreservesOrder(t *testing.T) {
	testutil.CheckLeaks(t)
	kinds := []string{"titanxp", "titanxp@clock=0.6", "titanxp@gen=2", "titanxp@sms=16", "titanxp@clock=0.8@gen=4"}
	seeds := []int64{3, 17}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			spec := ""
			for i, n := 0, 2+rng.Intn(3); i < n; i++ {
				if i > 0 {
					spec += ","
				}
				spec += kinds[rng.Intn(len(kinds))]
			}
			fleet, err := gpu.ParseFleet(spec)
			if err != nil {
				t.Fatalf("fleet %q: %v", spec, err)
			}
			t.Logf("fleet %q", spec)
			r := chaos.Start(t, seed, server.Config{
				Linger:     time.Millisecond,
				GPU:        true,
				Fleet:      fleet,
				BatchSize:  4 << 10,
				MaxPayload: 64 << 10,
				Health: health.Config{
					Window: 8, MinSamples: 4,
					ProbeEvery: 2, ReadmitAfter: 2,
				},
			})
			sick := rng.Intn(len(fleet))
			cfg := loadgen.Config{
				Clients:     4,
				Tenants:     4,
				FirstTenant: 1,
				Requests:    chaos.ScaledRequests(12, 4),
				MinBytes:    8 << 10, // 2+ batches per request: order bugs corrupt restores
				MaxBytes:    48 << 10,
				Retries:     3,
				BackoffCap:  100 * time.Millisecond,
				Verify:      true,
				Seed:        seed + 1,
			}
			r.Fleets(cfg) // healthy phase
			r.Degrade(sick, fault.Config{Seed: seed + 2, TransferRate: 0.8, KernelRate: 0.8})
			r.Fleets(cfg) // degraded phase: reroutes and probes in flight
			r.Heal(sick)
			r.Fleets(cfg) // recovery phase: re-admission mid-traffic
			// Verify:true inside Fleets already failed the test on any
			// restore mismatch; reaching here means order held everywhere.
		})
	}
}
