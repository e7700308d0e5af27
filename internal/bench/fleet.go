package bench

import (
	"bytes"
	"fmt"

	"streamgpu/internal/dedup"
	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/health"
	"streamgpu/internal/stats"
	"streamgpu/internal/workload"
)

// FigFleet compares health-aware (score-weighted) placement against blind
// sequence-modulo routing on a heterogeneous fleet that degrades mid-run:
// one device starts injecting heavy faults halfway through the stream. Three
// rows anchor the comparison — the same fleet with no degradation (the
// ceiling), blind routing under degradation (keeps feeding the sick device
// until quarantine reroutes its share to the CPU), and health-aware
// placement under degradation (sheds the sick device's share across the
// healthy pool and keeps it on probation via probe batches).
//
// Throughput uses a deterministic lane model over the serving-path
// Processor: every batch lands on one lane (a device, measured in virtual
// seconds by its own simulation, or the CPU fallback at CPUSecondsPerMB),
// lanes run concurrently in the real pipeline, so makespan is the busiest
// lane and MB/s = bytes / makespan. Archives are asserted byte-identical
// across all three modes and against the sequential reference — placement
// must never change output bytes, only where the work ran.

// FleetConfig parameterizes FigFleet.
type FleetConfig struct {
	// Fleet is the device pool (default: the paper's Titan XP ×4).
	Fleet []gpu.DeviceSpec
}

// The figure's fixed run: 4 MiB of Linux-like data in 32 KiB batches, 128
// of them, enough post-derate traffic to see quarantine, probes and
// rerouting. Device 1 injects faults for the second half of the stream,
// and one seed drives the workload and the fault schedules.
const (
	fleetSize       = 4 << 20
	fleetBatchBytes = 32 << 10
	fleetSick       = 1
	fleetSeed       = 42
)

func (c FleetConfig) fleet() []gpu.DeviceSpec {
	if len(c.Fleet) > 0 {
		return c.Fleet
	}
	fl, err := gpu.ParseFleet("titanxp*4")
	if err != nil {
		panic(err)
	}
	return fl
}

// CPUSecondsPerMB is the fallback lane's cost model: the measured-shape cost
// of hashing + compressing one megabyte on one host core (§IV-B's CPU
// stages), kept deliberately pessimistic against the device lanes so the
// figure shows what rerouting to the host actually costs a loaded server.
const CPUSecondsPerMB = 0.040

// FleetRow is one placement mode's outcome.
type FleetRow struct {
	Label       string
	MBps        float64
	Quarantines int
	Readmits    int
	Rerouted    int // batches that fell back to the CPU lane
	Probes      int // probe batches sent to quarantined devices
	Batches     int
	Archive     []byte
}

// FigFleetRows runs the three placement modes — blind on the healthy fleet
// (the ceiling), blind under mid-run derating, and health-aware under the
// same derating — and asserts every archive is byte-identical to the
// sequential reference before returning. A corrupted run must never render
// as a throughput number.
func FigFleetRows(cfg FleetConfig) []FleetRow {
	input := workload.Generate(workload.Spec{Kind: workload.Linux, Size: fleetSize, Seed: fleetSeed})
	var ref bytes.Buffer
	if _, err := dedup.CompressSeq(input, &ref, dedup.Options{BatchSize: fleetBatchBytes}); err != nil {
		panic(err)
	}
	rows := []FleetRow{
		runFleetMode(cfg, input, "blind, healthy fleet (ceiling)", true, false),
		runFleetMode(cfg, input, "blind, gpu1 derated mid-run", true, true),
		runFleetMode(cfg, input, "health-aware, gpu1 derated mid-run", false, true),
	}
	for _, r := range rows {
		if !bytes.Equal(r.Archive, ref.Bytes()) {
			panic(fmt.Sprintf("bench: %q archive differs from the sequential reference", r.Label))
		}
	}
	return rows
}

// FigFleet renders the placement comparison table.
func FigFleet(cfg FleetConfig) *stats.Table {
	rows := FigFleetRows(cfg)
	t := &stats.Table{
		Title: fmt.Sprintf("Fig. 7 — placement on a degraded %d-device fleet (%.1f MB, derate at half-stream)",
			len(cfg.fleet()), float64(fleetSize)/1e6),
		Unit: "MB/s",
	}
	base := rows[1].MBps // speedups vs the blind degraded row
	for _, r := range rows {
		t.Add(stats.Row{
			Label:   fmt.Sprintf("%s [quar=%d readm=%d]", r.Label, r.Quarantines, r.Readmits),
			Value:   r.MBps,
			Speedup: r.MBps / base,
			Extra: map[string]float64{
				"cpu_fallback": float64(r.Rerouted) / float64(r.Batches),
				"probes":       float64(r.Probes) / float64(r.Batches),
			},
		})
	}
	return t
}

// runFleetMode streams the input through one serving-path Processor under
// one placement mode and accounts every batch to its lane.
func runFleetMode(cfg FleetConfig, input []byte, label string, blind, derate bool) FleetRow {
	fleet := cfg.fleet()
	totalBatches := (len(input) + fleetBatchBytes - 1) / fleetBatchBytes
	derateFrom := totalBatches / 2

	sb := health.New(health.Config{
		Devices: len(fleet), Window: 8, MinSamples: 4,
		ProbeEvery: 4, ReadmitAfter: 2,
	})
	for i, spec := range fleet {
		sb.SetBaseline(i, spec.ServiceSecondsHint(fleetBatchBytes)/float64(fleetBatchBytes))
	}

	// The processor runs batches strictly in sequence, so a shared progress
	// counter gives a deterministic "mid-run" boundary for the derate.
	processed := 0
	opt := dedup.GPUOptions{
		Options:        dedup.Options{BatchSize: fleetBatchBytes},
		MaxRetries:     1,
		Fleet:          fleet,
		Health:         sb,
		BlindPlacement: blind,
		FaultsFor: func(dev int) fault.Config {
			if !derate || dev != fleetSick || processed < derateFrom {
				return fault.Config{}
			}
			return fault.Config{Seed: fleetSeed, TransferRate: 0.9, KernelRate: 0.9}
		},
	}

	lanes := make([]float64, len(fleet))
	var cpuSeconds float64
	var probes int
	opt.Placed = func(dev int, probe bool, virtSec float64) {
		if probe {
			probes++
		}
		if dev < 0 {
			cpuSeconds += float64(fleetBatchBytes) / 1e6 * CPUSecondsPerMB
			return
		}
		lanes[dev] += virtSec
	}

	p := dedup.NewProcessor(opt, true)
	var arch bytes.Buffer
	dw := dedup.NewWriter(&arch)
	store := dedup.NewStore()
	var runErr error
	dedup.FragmentInto(input, fleetBatchBytes, func(b *dedup.Batch) {
		p.Process(b, store)
		processed++
		if err := b.WriteBlocks(dw); err != nil && runErr == nil {
			runErr = err
		}
		b.Release()
	})
	if runErr == nil {
		runErr = dw.Close()
	}
	if runErr != nil {
		panic(fmt.Sprintf("bench: fleet mode %q: %v", label, runErr))
	}

	makespan := cpuSeconds
	for _, l := range lanes {
		if l > makespan {
			makespan = l
		}
	}
	var quarantines, readmits int
	for _, st := range sb.Snapshot() {
		quarantines += int(st.Quarantines)
		readmits += int(st.Readmits)
	}
	return FleetRow{
		Label:       label,
		MBps:        float64(len(input)) / 1e6 / makespan,
		Quarantines: quarantines,
		Readmits:    readmits,
		Rerouted:    p.Report().Rerouted,
		Probes:      probes,
		Batches:     processed,
		Archive:     arch.Bytes(),
	}
}
