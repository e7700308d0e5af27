package dedup

import (
	"bytes"
	"testing"

	"streamgpu/internal/fault"
)

// gpuSample keeps GPU tests fast: the FastKernel cost model is cheap, but
// match precomputation and retries still touch every byte.
func gpuSample(t *testing.T) []byte {
	t.Helper()
	return sample(256 << 10)
}

// seqArchive compresses input with the sequential reference and returns the
// archive bytes.
func seqArchive(t *testing.T, input []byte, opt Options) []byte {
	t.Helper()
	var arch bytes.Buffer
	if _, err := CompressSeq(input, &arch, opt); err != nil {
		t.Fatal(err)
	}
	return arch.Bytes()
}

// compressGPU runs CompressGPU over the GPU sample and returns its report.
// The archives of these schedules are checked in TestArchiveEquivalence.
func compressGPU(t *testing.T, opt GPUOptions) GPUReport {
	t.Helper()
	var arch bytes.Buffer
	_, rep, err := CompressGPU(gpuSample(t), &arch, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCompressGPUFaultFreeMatchesSeq(t *testing.T) {
	rep := compressGPU(t, GPUOptions{Options: Options{BatchSize: 32 << 10}})
	if rep.CPUHash != 0 || rep.CPUCompress != 0 || rep.Retries != 0 {
		t.Fatalf("fault-free run reported recovery activity: %+v", rep)
	}
	if rep.GPUHash == 0 || rep.GPUCompress == 0 {
		t.Fatalf("no batches ran on the device: %+v", rep)
	}
}

func TestCompressGPUTransientFaultsRetry(t *testing.T) {
	rep := compressGPU(t, GPUOptions{
		Options:    Options{BatchSize: 16 << 10},
		MaxRetries: 8,
		Faults:     fault.Config{Seed: 33, TransferRate: 0.1, KernelRate: 0.1},
	})
	if rep.Retries == 0 {
		t.Fatalf("expected transient retries at 10%% rates: %+v", rep)
	}
	if rep.DeviceLost {
		t.Fatalf("no device loss configured: %+v", rep)
	}
}

// TestCompressGPUDeviceLossDegradesToCPU: every batch gets a fresh device,
// so the kill must land inside one batch's operations (a hash pass takes
// four, a compress pass five).
func TestCompressGPUDeviceLossDegradesToCPU(t *testing.T) {
	rep := compressGPU(t, GPUOptions{
		Options: Options{BatchSize: 16 << 10},
		Faults:  fault.Config{Seed: 2, KillAfterOps: 7},
	})
	if !rep.DeviceLost {
		t.Fatalf("device should be lost: %+v", rep)
	}
	if rep.CPUHash == 0 && rep.CPUCompress == 0 {
		t.Fatalf("after device loss some stages must degrade to CPU: %+v", rep)
	}
}

func TestCompressGPUDeterministicReport(t *testing.T) {
	input := gpuSample(t)
	opt := GPUOptions{
		Options:    Options{BatchSize: 16 << 10},
		MaxRetries: 4,
		Faults:     fault.Config{Seed: 17, TransferRate: 0.05, KernelRate: 0.05, KillAfterOps: 8},
	}
	var a, b bytes.Buffer
	_, repA, errA := CompressGPU(input, &a, opt)
	_, repB, errB := CompressGPU(input, &b, opt)
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v, %v", errA, errB)
	}
	if repA != repB {
		t.Fatalf("same seed, different reports: %+v vs %+v", repA, repB)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed, different archives")
	}
}
