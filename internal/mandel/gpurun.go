package mandel

import (
	"fmt"

	"streamgpu/internal/des"
	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/telemetry"
)

// FTConfig configures the fault-tolerant GPU runner RunGPUFT.
type FTConfig struct {
	// NGPUs is the device count (the paper's Fig. 1 uses 1 and 2).
	NGPUs int
	// BatchSize is rows per kernel launch (Listing 2's batching).
	BatchSize int
	// MaxRetries bounds transient-fault retries per batch on one device
	// before the batch degrades to the CPU path.
	MaxRetries int
	// IterCycles is the calibrated per-iteration device cycle cost
	// (internal/bench owns the calibration; 160 is its Titan XP value).
	IterCycles int64
	// Faults holds one injector config per device; a short slice leaves the
	// remaining devices fault-free.
	Faults []fault.Config
	// Telemetry, when set, instruments every device (transfer/kernel engine
	// metrics in virtual seconds, fault-injection hit counters). nil is off.
	Telemetry *telemetry.Registry
}

func (c FTConfig) nGPUs() int {
	if c.NGPUs <= 0 {
		return 1
	}
	return c.NGPUs
}

func (c FTConfig) batchSize() int {
	if c.BatchSize <= 0 {
		return 32
	}
	return c.BatchSize
}

func (c FTConfig) maxRetries() int {
	if c.MaxRetries <= 0 {
		return 3
	}
	return c.MaxRetries
}

func (c FTConfig) iterCycles() int64 {
	if c.IterCycles <= 0 {
		return 160
	}
	return c.IterCycles
}

// FTReport describes what the recovery machinery did during a run.
type FTReport struct {
	Retries     int // transient faults absorbed by retry
	FailedOver  int // batches completed on a different device than first tried
	CPUBatches  int // batches degraded to the CPU path
	DevicesLost int // devices killed by injected faults
}

// ftBatch is one unit of failover: a batch index plus whether a dying
// device already returned it to the pool.
type ftBatch struct {
	idx      int
	orphaned bool
}

// RunGPUFT computes the frame on simulated GPUs with the three recovery
// policies of the fault-tolerance layer: transient faults are retried with
// exponential backoff (in virtual time), a batch in flight on a dying
// device fails over to a surviving one, and with no surviving device the
// remaining batches degrade to the CPU path. The result is bit-identical to
// RunSeq regardless of the injected fault schedule.
//
// Batches are distributed on demand over the devices. All cross-device
// state (the batch pool, the image, the report) is safely shared without
// locks because the des scheduler is cooperative: exactly one simulated
// process runs at a time.
func RunGPUFT(p Params, cfg FTConfig) (*Image, FTReport, error) {
	sim := des.New()
	bs := cfg.batchSize()
	nBatches := (p.Dim + bs - 1) / bs
	im := NewImage(p.Dim)
	var rep FTReport

	devs := make([]*gpu.Device, cfg.nGPUs())
	for i := range devs {
		devs[i] = gpu.NewDevice(sim, gpu.TitanXPSpec(), i)
		devs[i].SetTelemetry(cfg.Telemetry)
		if i < len(cfg.Faults) {
			devs[i].SetFaultInjector(fault.New(cfg.Faults[i]))
		}
	}

	// On-demand batch pool with an orphan stack for failover.
	next := 0
	var orphans []ftBatch
	take := func() (ftBatch, bool) {
		if n := len(orphans); n > 0 {
			b := orphans[n-1]
			orphans = orphans[:n-1]
			return b, true
		}
		if next < nBatches {
			next++
			return ftBatch{idx: next - 1}, true
		}
		return ftBatch{}, false
	}
	done := make([]bool, nBatches)
	rowsIn := func(b int) int {
		rows := p.Dim - b*bs
		if rows > bs {
			rows = bs
		}
		return rows
	}

	for _, d := range devs {
		d := d
		sim.Spawn(fmt.Sprintf("ft-host%d", d.ID), func(proc *des.Proc) {
			dImg, err := d.Malloc(int64(bs * p.Dim))
			if err != nil {
				return // device unusable; others (or the CPU) take the work
			}
			h := gpu.NewPinnedBuf(int64(bs * p.Dim))
			st := d.NewStream("")
			for {
				b, ok := take()
				if !ok {
					return
				}
				rows := rowsIn(b.idx)
				err := runFTBatch(proc, st, d, cfg, p, b.idx, rows, dImg, h, &rep)
				if err != nil {
					if fault.IsDeviceLost(err) {
						// This device is gone: hand the batch to a survivor
						// and retire.
						rep.DevicesLost++
						orphans = append(orphans, ftBatch{idx: b.idx, orphaned: true})
						return
					}
					// Transient storm outlasted the retry budget on a live
					// device: degrade this batch to the CPU path.
					cpuBatch(p, im, b.idx, bs, rows)
					rep.CPUBatches++
					done[b.idx] = true
					continue
				}
				if b.orphaned {
					rep.FailedOver++
				}
				for r := 0; r < rows; r++ {
					im.SetRow(b.idx*bs+r, h.Data[r*p.Dim:(r+1)*p.Dim])
				}
				done[b.idx] = true
			}
		})
	}
	if _, err := sim.Run(); err != nil {
		return nil, rep, err
	}
	// Whatever no device completed (including orphans of the last survivor)
	// degrades to the CPU path.
	for b := 0; b < nBatches; b++ {
		if !done[b] {
			cpuBatch(p, im, b, bs, rowsIn(b))
			rep.CPUBatches++
		}
	}
	return im, rep, nil
}

// runFTBatch executes one batch on one device, retrying transient faults
// with exponential backoff in virtual time (gpu.Retry). It returns nil on
// success, a device-lost error when the device died, or the last transient
// error when the retry budget is exhausted.
func runFTBatch(proc *des.Proc, st *gpu.Stream, d *gpu.Device, cfg FTConfig,
	p Params, batch, rows int, dImg *gpu.Buf, h *gpu.HostBuf, rep *FTReport) error {
	retries, err := gpu.Retry(proc, cfg.maxRetries(), func() error {
		evK := st.Launch(proc, BatchKernel.Bind(batch, cfg.batchSize(), p, dImg, cfg.iterCycles()),
			gpu.Grid1D(rows*p.Dim, 128))
		evC := st.CopyD2H(proc, h, 0, dImg, 0, int64(rows*p.Dim))
		return gpu.WaitErr(proc, evK, evC)
	})
	rep.Retries += retries
	return err
}

// cpuBatch computes one batch of rows on the host — the degradation path.
func cpuBatch(p Params, im *Image, batch, bs, rows int) {
	row := make([]byte, p.Dim)
	for r := 0; r < rows; r++ {
		i := batch*bs + r
		p.ComputeRow(i, row)
		im.SetRow(i, row)
	}
}
