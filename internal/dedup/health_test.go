package dedup

import (
	"bytes"
	"sync/atomic"
	"testing"

	"streamgpu/internal/fault"
	"streamgpu/internal/health"
)

// runProcessor streams input through a serving-path Processor batch by
// batch, returning the archive bytes and the final report.
func runProcessor(t *testing.T, input []byte, p *Processor, batchSize int) []byte {
	t.Helper()
	var arch bytes.Buffer
	dw := NewWriter(&arch)
	store := NewStore()
	FragmentInto(input, batchSize, func(b *Batch) {
		p.Process(b, store)
		if err := b.WriteBlocks(dw); err != nil {
			t.Fatal(err)
		}
		b.Release()
	})
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	return arch.Bytes()
}

// TestProcessorQuarantineReroutes drives a two-device Processor with device 1
// injecting heavy faults: the scoreboard must quarantine it, reroute its
// batches to the CPU, and the archive must stay byte-identical to the
// sequential reference — degradation costs throughput, never correctness.
func TestProcessorQuarantineReroutes(t *testing.T) {
	input := sample(512 << 10)
	const batchSize = 8 << 10
	var faultRate atomic.Value
	faultRate.Store(0.9)
	sb := health.New(health.Config{
		Devices: 2, Window: 8, MinSamples: 4, Threshold: 0.5,
		ProbeEvery: 4, ReadmitAfter: 2,
	})
	opt := GPUOptions{
		Options:    Options{BatchSize: batchSize},
		MaxRetries: 1,
		Devices:    2,
		Health:     sb,
		// This test pins the blind-placement semantics: a quarantined
		// device's batches reroute to the CPU. Score-weighted placement
		// (which sheds them to other devices instead) has its own test.
		BlindPlacement: true,
		FaultsFor: func(dev int) fault.Config {
			if dev != 1 {
				return fault.Config{Seed: 1}
			}
			return fault.Config{Seed: 7, TransferRate: faultRate.Load().(float64), KernelRate: faultRate.Load().(float64)}
		},
	}
	p := NewProcessor(opt, true)
	arch := runProcessor(t, input, p, batchSize)

	if !sb.Quarantined(1) {
		t.Fatalf("device 1 not quarantined at 90%% fault rates: %+v", sb.Snapshot())
	}
	if sb.Quarantined(0) {
		t.Fatalf("healthy device 0 quarantined: %+v", sb.Snapshot())
	}
	if p.Report().Rerouted == 0 {
		t.Fatalf("no batches rerouted around the quarantined device: %+v", p.Report())
	}
	if !bytes.Equal(arch, seqArchive(t, input, opt.Options)) {
		t.Fatal("archive under quarantine differs from the sequential reference")
	}
	var out bytes.Buffer
	if err := Restore(bytes.NewReader(arch), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), input) {
		t.Fatal("restore mismatch under quarantine")
	}

	// Heal the device and keep streaming: probes come back clean and the
	// scoreboard must re-admit it.
	faultRate.Store(0.0)
	p2 := NewProcessor(opt, true)
	arch2 := runProcessor(t, input, p2, batchSize)
	if sb.Quarantined(1) {
		t.Fatalf("healed device 1 never re-admitted: %+v", sb.Snapshot())
	}
	if st := sb.Snapshot()[1]; st.Readmits == 0 {
		t.Fatalf("no re-admission recorded: %+v", st)
	}
	if !bytes.Equal(arch2, seqArchive(t, input, opt.Options)) {
		t.Fatal("archive across re-admission differs from the sequential reference")
	}
}
