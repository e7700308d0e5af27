package dedup

import (
	"io"
	"testing"

	"streamgpu/internal/gpu"
	"streamgpu/internal/pool"
)

// forEachFaultRun streams a fresh GPU Processor through every fault schedule
// of TestArchiveEquivalence and of TestStaleMemorySpace, which between them
// reach the retry, CPU-fallback and device-loss paths. setup sees each
// Processor before it runs; check runs once its streams are closed.
func forEachFaultRun(t *testing.T, setup func(*testing.T, *Processor), check func(*testing.T)) {
	input := sample(1<<20 + 12345)
	for _, sc := range equivSchedules {
		t.Run("equiv/"+sc.name, func(t *testing.T) {
			opt := equivGPU(sc.faults)
			p := NewProcessor(opt, true)
			setup(t, p)
			if _, err := compressBatches(input, io.Discard, opt.batchSize(), p); err != nil {
				t.Fatal(err)
			}
			check(t)
		})
	}
	for _, sc := range staleSchedules {
		t.Run("stale/"+sc.name, func(t *testing.T) {
			p := NewProcessor(GPUOptions{MaxRetries: 2, Faults: sc.faults}, true)
			setup(t, p)
			runStaleSessions(t, p, NewStore(), 100, func() {})
			check(t)
		})
	}
}

// TestDeviceMemoryFreedPerBatch requires every batch's device to hold no
// device memory once the batch's simulation has ended, on every path the
// fault schedules reach. Each batch gets a fresh device today, so a leaked
// buffer costs nothing visible; a device reused across batches would run out
// of memory.
func TestDeviceMemoryFreedPerBatch(t *testing.T) {
	var batches int
	forEachFaultRun(t, func(t *testing.T, p *Processor) {
		batches = 0
		p.simEnded = func(dev *gpu.Device) {
			batches++
			if used := dev.MemUsed(); used != 0 {
				t.Errorf("batch %d: %s holds %d bytes of device memory after its simulation ended",
					batches, dev.Name(), used)
			}
		}
	}, func(t *testing.T) {
		if batches == 0 {
			t.Fatal("no batch ran on a device")
		}
	})
}

// TestPoolsBalanceUnderFaults requires the dedup pools to get back every
// value a GPU Processor's batches took from them, once the streams are
// closed, under every fault schedule: a Release missed on a fallback path
// shows as values still outstanding.
func TestPoolsBalanceUnderFaults(t *testing.T) {
	pools := []struct {
		name  string
		stats func() pool.Stats
	}{
		{"dedup.batch", batchPool.Stats},
		{"dedup.comp-out", compOutPool.Stats},
	}
	outstanding := func(i int) int64 {
		s := pools[i].stats()
		return s.Gets - s.Releases
	}
	before := make([]int64, len(pools))
	forEachFaultRun(t, func(*testing.T, *Processor) {
		for i := range pools {
			before[i] = outstanding(i)
		}
	}, func(t *testing.T) {
		for i, pl := range pools {
			if n := outstanding(i); n != before[i] {
				t.Errorf("%s: %d values outstanding after the streams closed, %d before they started",
					pl.name, n, before[i])
			}
		}
	})
}
