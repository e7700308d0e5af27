package gpu

import (
	"errors"
	"fmt"

	"streamgpu/internal/fault"
)

// ErrOutOfMemory is returned by Malloc when the device's global memory is
// exhausted — the failure mode the paper hit with 10 MB OpenCL batches.
var ErrOutOfMemory = errors.New("gpu: out of device memory")

// Buf is a device-memory allocation. Its bytes live on the host (the model
// is functional) but are only legally touched by kernels and transfer
// operations, mirroring the CUDA rule that device pointers must not be
// dereferenced on the host.
type Buf struct {
	dev   *Device
	data  []byte
	freed bool
}

// Malloc allocates n bytes of device memory. Allocation failure — exhausted
// global memory, or a device an injected fault has killed — is an error the
// caller handles (fall back to CPU, fail over, or shrink the batch), never a
// library-side panic.
func (d *Device) Malloc(n int64) (*Buf, error) {
	if err := d.reserve(n); err != nil {
		return nil, err
	}
	return &Buf{dev: d, data: make([]byte, n)}, nil
}

// MallocOver is Malloc with the allocation's bytes supplied by the caller:
// the same accounting and failure modes, but no host allocation — how a
// memory space that outlives its (per-batch) device is attached to the next
// one. Like cudaMalloc it promises nothing about the contents; the caller
// must not touch backing until the buffer is freed.
func (d *Device) MallocOver(backing []byte) (*Buf, error) {
	if err := d.reserve(int64(len(backing))); err != nil {
		return nil, err
	}
	return &Buf{dev: d, data: backing}, nil
}

// reserve accounts n bytes of device memory or says why it cannot.
func (d *Device) reserve(n int64) error {
	if n <= 0 {
		return fmt.Errorf("gpu: malloc of %d bytes", n)
	}
	if d.Lost() {
		return fmt.Errorf("gpu: malloc on %s: %w", d.name, fault.ErrDeviceLost)
	}
	if d.memUsed+n > d.Spec.GlobalMemBytes {
		return fmt.Errorf("%w: want %d, used %d of %d", ErrOutOfMemory, n, d.memUsed, d.Spec.GlobalMemBytes)
	}
	d.memUsed += n
	if d.memUsed > d.stats.PeakMemUsed {
		d.stats.PeakMemUsed = d.memUsed
	}
	return nil
}

// Free releases the allocation. Double-free panics.
func (b *Buf) Free() {
	if b.freed {
		panic("gpu: double free")
	}
	b.freed = true
	b.dev.memUsed -= int64(len(b.data))
	b.data = nil
}

// Size reports the allocation size in bytes.
func (b *Buf) Size() int64 { return int64(len(b.data)) }

// Device returns the owning device.
func (b *Buf) Device() *Device { return b.dev }

// Bytes exposes the device bytes to kernel code. Host-side code must go
// through Memcpy operations instead; kernels receive buffers through their
// launch closure and may use Bytes freely.
func (b *Buf) Bytes() []byte {
	if b.freed {
		panic("gpu: use after free")
	}
	return b.data
}

// HostBuf is host memory that can take part in transfers. Pinned
// (page-locked) memory transfers at full PCIe bandwidth and is eligible for
// asynchronous copies; pageable memory is slower and forces the issuing host
// thread to block for the transfer (as the CUDA driver does).
type HostBuf struct {
	Data   []byte
	Pinned bool
}

// NewHostBuf allocates pageable host memory.
func NewHostBuf(n int64) *HostBuf { return &HostBuf{Data: make([]byte, n)} }

// NewPinnedBuf allocates page-locked host memory (cudaHostAlloc analogue).
func NewPinnedBuf(n int64) *HostBuf {
	return &HostBuf{Data: make([]byte, n), Pinned: true}
}

// WrapHost wraps an existing host slice as pageable memory — the situation
// Dedup's realloc'd buffers are in, which prevents async copies.
func WrapHost(data []byte) *HostBuf { return &HostBuf{Data: data} }
