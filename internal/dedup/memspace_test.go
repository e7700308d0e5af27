package dedup

import (
	"bytes"
	"sync"
	"testing"

	"streamgpu/internal/fault"
	"streamgpu/internal/workload"
)

// poison overwrites every byte of the memory space, up to capacity, with a
// pattern no batch produces: 0xA5A5A5A5 is a negative block start, a
// 2.7-billion-byte match and a distance far outside the window. A batch that
// reads anything it did not write first either corrupts its archive, skews
// its recovery counters, or indexes out of range.
func (ms *memSpace) poison() {
	for _, p := range []*[]byte{&ms.dIn, &ms.dSp, &ms.dHash, &ms.dMl, &ms.dMo,
		&ms.hSp.Data, &ms.hHash.Data, &ms.hMl.Data, &ms.hMo.Data} {
		s := (*p)[:cap(*p)]
		for i := range s {
			s[i] = 0xA5
		}
	}
}

// staleSession is one archive's worth of input: the Processor outlives
// sessions, as a server worker does, so consecutive sessions with different
// batch sizes are how its memory space sees batches shrink and grow.
type staleSession struct {
	size, batch int
}

// staleSessions shrinks (256K → 88K tail → 24K), grows past every earlier
// size (→ 384K), and ends on batches smaller than a warp's worth of blocks.
var staleSessions = []staleSession{
	{600 << 10, 256 << 10},
	{100 << 10, 24 << 10},
	{700 << 10, 384 << 10},
	{9 << 10, 2 << 10},
}

// staleSchedules are the fault schedules of the stale-buffer test; want is
// the GPUReport the parent commit (fresh zeroed buffers every batch) produced
// for the same sessions at workload seed 100.
var staleSchedules = []struct {
	name   string
	faults fault.Config
	want   GPUReport
}{
	{"fault-free", fault.Config{},
		GPUReport{GPUHash: 15, GPUCompress: 15}},
	{"transient", fault.Config{Seed: 7, TransferRate: 0.08, KernelRate: 0.08},
		GPUReport{Retries: 16, GPUHash: 15, GPUCompress: 15}},
	{"exhausted-retry", fault.Config{Seed: 11, TransferRate: 0.45, KernelRate: 0.45},
		GPUReport{Retries: 44, GPUHash: 8, CPUHash: 7, CPUCompress: 15}},
	// Every batch's device dies on its seventh op: hashed on the device,
	// compressed on the CPU.
	{"device-lost", fault.Config{Seed: 5, KillAfterOps: 7},
		GPUReport{GPUHash: 15, CPUCompress: 15, DeviceLost: true}},
}

// runStaleSessions streams every session through one Processor and returns
// the archives. between runs before each batch (poison the space, or drop
// it).
func runStaleSessions(t testing.TB, p *Processor, store BlockStore, seed int64, between func()) [][]byte {
	var archs [][]byte
	for i, s := range staleSessions {
		input := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: s.size, Seed: seed + int64(i)})
		var arch bytes.Buffer
		dw := NewWriter(&arch)
		var err error
		FragmentInto(input, s.batch, func(b *Batch) {
			between()
			p.Process(b, store)
			if werr := b.WriteBlocks(dw); werr != nil && err == nil {
				err = werr
			}
			b.Release()
		})
		if err == nil {
			err = dw.Close()
		}
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
		archs = append(archs, arch.Bytes())
	}
	return archs
}

// checkStaleSessions requires every archive byte-identical to CompressSeq's.
func checkStaleSessions(t testing.TB, seed int64, archs [][]byte) {
	for i, s := range staleSessions {
		input := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: s.size, Seed: seed + int64(i)})
		var want bytes.Buffer
		if _, err := CompressSeq(input, &want, Options{BatchSize: s.batch}); err != nil {
			t.Errorf("session %d: CompressSeq: %v", i, err)
		}
		if !bytes.Equal(archs[i], want.Bytes()) {
			t.Errorf("session %d (%d B in %d B batches): archive differs from CompressSeq", i, s.size, s.batch)
		}
	}
}

// TestStaleMemorySpace poisons the Processor's persistent memory space
// before every batch, over batch sizes that shrink and grow and under each
// fault schedule, and requires what the parent's fresh-buffers-per-batch
// path produced: archives byte-identical to CompressSeq and the same
// recovery counters — both as recorded from the parent and as a Processor
// whose space is dropped before every batch reports them here.
func TestStaleMemorySpace(t *testing.T) {
	for _, sc := range staleSchedules {
		t.Run(sc.name, func(t *testing.T) {
			opt := GPUOptions{MaxRetries: 2, Faults: sc.faults}

			fresh := NewProcessor(opt, true)
			runStaleSessions(t, fresh, NewStore(), 100, func() { fresh.ms = nil })

			p := NewProcessor(opt, true)
			archs := runStaleSessions(t, p, NewStore(), 100, func() {
				if p.ms != nil {
					p.ms.poison()
				}
			})
			checkStaleSessions(t, 100, archs)
			if p.Report() != fresh.Report() {
				t.Errorf("poisoned persistent space reports %+v, fresh space per batch %+v", p.Report(), fresh.Report())
			}
			if p.Report() != sc.want {
				t.Errorf("report %+v, parent commit reported %+v", p.Report(), sc.want)
			}
			if p.ms == nil {
				t.Fatal("the GPU path never built its memory space")
			}
		})
	}
}

// TestStaleMemorySpaceTwoProcessors is the server's shape: two Processors,
// each with its own memory space, sharing one duplicate store and one
// process-wide batch pool, run concurrently under a transient-fault schedule
// with their spaces poisoned between batches. Run under -race.
func TestStaleMemorySpaceTwoProcessors(t *testing.T) {
	opt := GPUOptions{MaxRetries: 2, Faults: fault.Config{Seed: 7, TransferRate: 0.08, KernelRate: 0.08}}
	store := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			p := NewProcessor(opt, true)
			archs := runStaleSessions(t, p, store, seed, func() {
				if p.ms != nil {
					p.ms.poison()
				}
			})
			checkStaleSessions(t, seed, archs)
		}(int64(200 + 50*w))
	}
	wg.Wait()
}
