package dedup

import (
	"bytes"
	"testing"

	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/health"
)

// TestProcessorPlacementShedsToHealthyDevices drives a heterogeneous
// two-device Processor with device 1 injecting heavy faults under
// score-weighted placement: the scoreboard must quarantine device 1, the
// healthy device must absorb the traffic (no CPU reroutes — that is the
// whole point of placement over blind routing), probes must keep reaching
// the quarantined device, and the archive must stay byte-identical to the
// sequential reference.
func TestProcessorPlacementShedsToHealthyDevices(t *testing.T) {
	input := sample(512 << 10)
	const batchSize = 8 << 10
	fleet, err := gpu.ParseFleet("titanxp,titanxp@clock=0.7")
	if err != nil {
		t.Fatal(err)
	}
	sb := health.New(health.Config{
		Devices: 2, Window: 8, MinSamples: 4,
		ProbeEvery: 4, ReadmitAfter: 2,
	})
	opt := GPUOptions{
		Options:    Options{BatchSize: batchSize},
		MaxRetries: 1,
		Fleet:      fleet,
		Health:     sb,
		FaultsFor: func(dev int) fault.Config {
			if dev != 1 {
				return fault.Config{Seed: 1}
			}
			return fault.Config{Seed: 7, TransferRate: 0.9, KernelRate: 0.9}
		},
	}
	var placed [2]int
	var cpu int
	opt.Placed = func(dev int, probe bool, virtSec float64) {
		if dev < 0 {
			cpu++
			return
		}
		placed[dev]++
		if virtSec <= 0 {
			t.Errorf("device %d batch with non-positive virtual time %v", dev, virtSec)
		}
	}
	p := NewProcessor(opt, true)
	arch := runProcessor(t, input, p, batchSize)

	if !sb.Quarantined(1) {
		t.Fatalf("device 1 not quarantined at 90%% fault rates: %+v", sb.Snapshot())
	}
	if sb.Quarantined(0) {
		t.Fatalf("healthy device 0 quarantined: %+v", sb.Snapshot())
	}
	if cpu != 0 || p.Report().Rerouted != 0 {
		t.Fatalf("placement rerouted %d batches to the CPU with a healthy device available (report %+v)", cpu, p.Report())
	}
	if placed[0] <= placed[1] {
		t.Fatalf("healthy device did not absorb the load: placed = %v", placed)
	}
	if st := sb.Snapshot()[1]; st.Probes == 0 {
		t.Fatalf("no probes reached the quarantined device: %+v", st)
	}
	if !bytes.Equal(arch, seqArchive(t, input, opt.Options)) {
		t.Fatal("archive under score-weighted placement differs from the sequential reference")
	}
}

// TestProcessorAllQuarantinedFallsBackToCPU: when every device is
// quarantined, placement must degrade to the CPU path between probes rather
// than stall or crash.
func TestProcessorAllQuarantinedFallsBackToCPU(t *testing.T) {
	input := sample(128 << 10)
	const batchSize = 8 << 10
	sb := health.New(health.Config{
		Devices: 1, Window: 4, MinSamples: 4,
		ProbeEvery: 8, ReadmitAfter: 3,
	})
	opt := GPUOptions{
		Options:    Options{BatchSize: batchSize},
		MaxRetries: 1,
		Health:     sb,
		Faults:     fault.Config{Seed: 3, TransferRate: 0.95, KernelRate: 0.95},
	}
	p := NewProcessor(opt, true)
	arch := runProcessor(t, input, p, batchSize)
	if !sb.Quarantined(0) {
		t.Fatalf("device not quarantined: %+v", sb.Snapshot())
	}
	if p.Report().Rerouted == 0 {
		t.Fatalf("no CPU fallback with the whole pool quarantined: %+v", p.Report())
	}
	if !bytes.Equal(arch, seqArchive(t, input, opt.Options)) {
		t.Fatal("archive with the pool quarantined differs from the sequential reference")
	}
}
