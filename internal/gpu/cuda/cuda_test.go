package cuda

import (
	"testing"

	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
)

// scaleSpec is the shared test kernel: out[i] = in[i] * 2.
var scaleSpec = &gpu.KernelSpec{
	Name: "scale2",
	Body: func(t gpu.Thread, args []any) int64 {
		in := args[0].(*gpu.Buf)
		out := args[1].(*gpu.Buf)
		n := args[2].(int)
		i := t.GlobalX()
		if i >= n {
			return gpu.ExitCost
		}
		out.Bytes()[i] = in.Bytes()[i] * 2
		return 30
	},
}

func newRuntime(t *testing.T, nDev int) (*des.Sim, *Runtime) {
	t.Helper()
	sim := des.New()
	devs := make([]*gpu.Device, nDev)
	for i := range devs {
		devs[i] = gpu.NewDevice(sim, gpu.TitanXPSpec(), i)
	}
	rt, err := NewRuntime(sim, devs...)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	return sim, rt
}

func TestMemcpyLaunchRoundTrip(t *testing.T) {
	const n = 256
	sim, rt := newRuntime(t, 1)
	in := rt.HostAlloc(n)
	out := rt.HostAlloc(n)
	for i := range in.Data {
		in.Data[i] = byte(i % 100)
	}
	sim.Spawn("host", func(p *des.Proc) {
		st := rt.StreamCreate(p)
		din, err := rt.Malloc(p, n)
		if err != nil {
			t.Error(err)
			return
		}
		dout, err := rt.Malloc(p, n)
		if err != nil {
			t.Error(err)
			return
		}
		rt.MemcpyAsync(p, din, 0, in, 0, n, MemcpyHostToDevice, st)
		rt.LaunchKernel(p, scaleSpec, gpu.Grid1D(n, 64), st, din, dout, n)
		rt.MemcpyAsync(p, dout, 0, out, 0, n, MemcpyDeviceToHost, st)
		if err := rt.StreamSynchronize(p, st); err != nil {
			t.Error(err)
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range out.Data {
		if out.Data[i] != byte(i%100)*2 {
			t.Fatalf("out[%d] = %d, want %d", i, out.Data[i], byte(i%100)*2)
		}
	}
}

func TestSetDevicePerThread(t *testing.T) {
	sim, rt := newRuntime(t, 2)
	sim.Spawn("t0", func(p *des.Proc) {
		if rt.GetDevice(p) != 0 {
			t.Errorf("default device = %d, want 0", rt.GetDevice(p))
		}
		if err := rt.SetDevice(p, 1); err != nil {
			t.Error(err)
		}
		if rt.GetDevice(p) != 1 {
			t.Errorf("after SetDevice(1): %d", rt.GetDevice(p))
		}
	})
	sim.Spawn("t1", func(p *des.Proc) {
		p.Wait(1)
		// Thread-side effects: t0's SetDevice must not leak here.
		if rt.GetDevice(p) != 0 {
			t.Errorf("other thread sees device %d, want 0 (SetDevice is per-thread)", rt.GetDevice(p))
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSetDeviceInvalid(t *testing.T) {
	sim, rt := newRuntime(t, 1)
	sim.Spawn("t", func(p *des.Proc) {
		if err := rt.SetDevice(p, 3); err == nil {
			t.Error("SetDevice(3) with 1 device should fail")
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPageableMemcpyAsyncBlocks(t *testing.T) {
	// With pageable memory, MemcpyAsync must not return before the
	// transfer completes: virtual time advances across the call.
	const n = 4 << 20
	sim, rt := newRuntime(t, 1)
	pageable := gpu.NewHostBuf(n)
	var elapsed des.Time
	sim.Spawn("host", func(p *des.Proc) {
		st := rt.StreamCreate(p)
		d, _ := rt.Malloc(p, n)
		start := p.Now()
		rt.MemcpyAsync(p, d, 0, pageable, 0, n, MemcpyHostToDevice, st)
		elapsed = p.Now() - start
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed == 0 {
		t.Error("pageable MemcpyAsync returned without blocking")
	}
}

func TestPinnedMemcpyAsyncReturnsImmediately(t *testing.T) {
	const n = 4 << 20
	sim, rt := newRuntime(t, 1)
	pinned := rt.HostAlloc(n)
	var elapsed des.Time
	sim.Spawn("host", func(p *des.Proc) {
		st := rt.StreamCreate(p)
		d, _ := rt.Malloc(p, n)
		start := p.Now()
		rt.MemcpyAsync(p, d, 0, pinned, 0, n, MemcpyHostToDevice, st)
		elapsed = p.Now() - start
		if err := rt.StreamSynchronize(p, st); err != nil {
			t.Error(err)
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 0 {
		t.Errorf("pinned MemcpyAsync should return immediately, took %v", elapsed)
	}
}

func TestEventRecordSynchronize(t *testing.T) {
	const n = 1 << 20
	sim, rt := newRuntime(t, 1)
	pinned := rt.HostAlloc(n)
	sim.Spawn("host", func(p *des.Proc) {
		st := rt.StreamCreate(p)
		d, _ := rt.Malloc(p, n)
		rt.MemcpyAsync(p, d, 0, pinned, 0, n, MemcpyHostToDevice, st)
		ev := rt.EventRecord(p, st)
		before := p.Now()
		if err := rt.EventSynchronize(p, ev); err != nil {
			t.Error(err)
		}
		if p.Now() <= before {
			t.Error("EventSynchronize should advance virtual time past the transfer")
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiGPURoundRobin(t *testing.T) {
	// The Fig. 1 multi-GPU pattern: one host thread, buffers assigned to
	// devices round-robin; both devices must end up doing work.
	const n = 1 << 16
	sim, rt := newRuntime(t, 2)
	host := rt.HostAlloc(n)
	sim.Spawn("host", func(p *des.Proc) {
		streams := make([]*Stream, 2)
		bufs := make([]*gpu.Buf, 2)
		for g := 0; g < 2; g++ {
			rt.SetDevice(p, g)
			streams[g] = rt.StreamCreate(p)
			bufs[g], _ = rt.Malloc(p, n)
		}
		for i := 0; i < 6; i++ {
			g := i % 2
			rt.SetDevice(p, g)
			rt.MemcpyAsync(p, bufs[g], 0, host, 0, n, MemcpyHostToDevice, streams[g])
			rt.LaunchKernel(p, scaleSpec, gpu.Grid1D(n, 128), streams[g], bufs[g], bufs[g], n)
		}
		for g := 0; g < 2; g++ {
			if err := rt.StreamSynchronize(p, streams[g]); err != nil {
				t.Error(err)
			}
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		if rt.Device(g).Stats().KernelsLaunched != 3 {
			t.Errorf("device %d launched %d kernels, want 3", g, rt.Device(g).Stats().KernelsLaunched)
		}
	}
}

func TestDeviceCount(t *testing.T) {
	_, rt := newRuntime(t, 2)
	if rt.DeviceCount() != 2 {
		t.Errorf("DeviceCount = %d", rt.DeviceCount())
	}
}
