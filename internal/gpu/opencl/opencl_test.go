package opencl

import (
	"strings"
	"testing"

	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
)

// addSpec: out[i] = in[i] + k, with get_global_id-style indexing.
var addSpec = &gpu.KernelSpec{
	Name: "addk",
	Body: func(t gpu.Thread, args []any) int64 {
		in := args[0].(*gpu.Buf)
		out := args[1].(*gpu.Buf)
		k := args[2].(byte)
		n := args[3].(int)
		i := t.GlobalX() // get_global_id(0)
		if i >= n {
			return gpu.ExitCost
		}
		out.Bytes()[i] = in.Bytes()[i] + k
		return 25
	},
}

func newCtx(t *testing.T, nDev int) (*des.Sim, *Context) {
	t.Helper()
	sim := des.New()
	devs := make([]*gpu.Device, nDev)
	for i := range devs {
		devs[i] = gpu.NewDevice(sim, gpu.TitanXPSpec(), i)
	}
	ctx, err := CreateContext(sim, devs...)
	if err != nil {
		t.Fatalf("CreateContext: %v", err)
	}
	return sim, ctx
}

func TestWorkflowRoundTrip(t *testing.T) {
	const n = 300
	sim, ctx := newCtx(t, 1)
	in := gpu.NewPinnedBuf(n)
	out := gpu.NewPinnedBuf(n)
	for i := range in.Data {
		in.Data[i] = byte(i)
	}
	sim.Spawn("host", func(p *des.Proc) {
		q := ctx.CreateCommandQueue(0)
		din, err := ctx.CreateBuffer(0, n)
		if err != nil {
			t.Error(err)
			return
		}
		dout, err := ctx.CreateBuffer(0, n)
		if err != nil {
			t.Error(err)
			return
		}
		k := CreateKernel(addSpec, 4)
		k.SetArg(p, 0, din.Raw())
		k.SetArg(p, 1, dout.Raw())
		k.SetArg(p, 2, byte(7))
		k.SetArg(p, 3, n)
		q.EnqueueWriteBuffer(p, din, 0, in, 0, n, false)
		ev := q.EnqueueNDRangeKernel(p, k, 384, 128)
		q.EnqueueReadBuffer(p, out, 0, dout, 0, n, false)
		WaitForEvents(p, ev)
		q.Finish(p)
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range out.Data {
		if out.Data[i] != byte(i)+7 {
			t.Fatalf("out[%d] = %d, want %d", i, out.Data[i], byte(i)+7)
		}
	}
}

func TestKernelNotThreadSafe(t *testing.T) {
	// The paper: "The cl_kernel objects of OpenCL library are not
	// thread-safe and must be allocated for each thread."
	sim, ctx := newCtx(t, 1)
	k := CreateKernel(addSpec, 4)
	sim.Spawn("t0", func(p *des.Proc) {
		k.SetArg(p, 2, byte(1))
	})
	sim.Spawn("t1", func(p *des.Proc) {
		p.Wait(1)
		k.SetArg(p, 2, byte(2)) // second thread: must fail
	})
	_ = ctx
	_, err := sim.Run()
	if err == nil {
		t.Fatal("sharing a cl_kernel across threads should fail the simulation")
	}
	if !strings.Contains(err.Error(), "not thread-safe") {
		t.Errorf("error should explain thread safety, got: %v", err)
	}
}

func TestKernelPerThreadIsFine(t *testing.T) {
	sim, ctx := newCtx(t, 1)
	for i := 0; i < 3; i++ {
		sim.Spawn("t", func(p *des.Proc) {
			q := ctx.CreateCommandQueue(0)
			d, _ := ctx.CreateBuffer(0, 64)
			k := CreateKernel(addSpec, 4) // one kernel object per thread
			k.SetArg(p, 0, d.Raw())
			k.SetArg(p, 1, d.Raw())
			k.SetArg(p, 2, byte(1))
			k.SetArg(p, 3, 64)
			q.EnqueueNDRangeKernel(p, k, 64, 64)
			q.Finish(p)
		})
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnsetArgPanics(t *testing.T) {
	sim, ctx := newCtx(t, 1)
	sim.Spawn("t", func(p *des.Proc) {
		q := ctx.CreateCommandQueue(0)
		k := CreateKernel(addSpec, 4)
		k.SetArg(p, 0, nil)
		q.EnqueueNDRangeKernel(p, k, 64, 64)
	})
	if _, err := sim.Run(); err == nil {
		t.Fatal("launching with unset args should fail")
	}
}

func TestArgsSnapshotAtEnqueue(t *testing.T) {
	// Changing an arg after enqueue must not affect the in-flight launch.
	const n = 64
	sim, ctx := newCtx(t, 1)
	out := gpu.NewPinnedBuf(n)
	sim.Spawn("host", func(p *des.Proc) {
		q := ctx.CreateCommandQueue(0)
		din, _ := ctx.CreateBuffer(0, n)
		dout, _ := ctx.CreateBuffer(0, n)
		k := CreateKernel(addSpec, 4)
		k.SetArg(p, 0, din.Raw())
		k.SetArg(p, 1, dout.Raw())
		k.SetArg(p, 2, byte(5))
		k.SetArg(p, 3, n)
		ev := q.EnqueueNDRangeKernel(p, k, n, 64)
		k.SetArg(p, 2, byte(99)) // too late for the first launch
		WaitForEvents(p, ev)
		q.EnqueueReadBuffer(p, out, 0, dout, 0, n, true)
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range out.Data {
		if out.Data[i] != 5 {
			t.Fatalf("out[%d] = %d, want 5 (arg snapshot violated)", i, out.Data[i])
		}
	}
}

func TestOutOfMemory(t *testing.T) {
	sim, ctx := newCtx(t, 1)
	spec := gpu.TitanXPSpec()
	sim.Spawn("host", func(p *des.Proc) {
		if _, err := ctx.CreateBuffer(0, spec.GlobalMemBytes+1); err == nil {
			t.Error("allocating more than device memory should fail")
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockingWrite(t *testing.T) {
	const n = 1 << 20
	sim, ctx := newCtx(t, 1)
	pinned := gpu.NewPinnedBuf(n)
	sim.Spawn("host", func(p *des.Proc) {
		q := ctx.CreateCommandQueue(0)
		d, _ := ctx.CreateBuffer(0, n)
		start := p.Now()
		q.EnqueueWriteBuffer(p, d, 0, pinned, 0, n, true) // CL_TRUE
		if p.Now() <= start {
			t.Error("blocking write should advance virtual time")
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoQueuesTwoDevices(t *testing.T) {
	const n = 1 << 16
	sim, ctx := newCtx(t, 2)
	host := gpu.NewPinnedBuf(n)
	sim.Spawn("host", func(p *des.Proc) {
		for g := 0; g < 2; g++ {
			q := ctx.CreateCommandQueue(g)
			d, _ := ctx.CreateBuffer(g, n)
			k := CreateKernel(addSpec, 4)
			k.SetArg(p, 0, d.Raw())
			k.SetArg(p, 1, d.Raw())
			k.SetArg(p, 2, byte(1))
			k.SetArg(p, 3, n)
			q.EnqueueWriteBuffer(p, d, 0, host, 0, n, false)
			q.EnqueueNDRangeKernel(p, k, n, 128)
			q.Finish(p)
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		if ctx.Devices()[g].Stats().KernelsLaunched != 1 {
			t.Errorf("device %d kernels = %d, want 1", g, ctx.Devices()[g].Stats().KernelsLaunched)
		}
	}
}
