package gpu

import (
	"slices"
	"testing"
	"testing/quick"

	"streamgpu/internal/des"
)

// testSpec is a small deterministic device for unit tests.
func testSpec() DeviceSpec {
	s := TitanXPSpec()
	return s
}

// runOnDevice spins up a sim + device, runs body as the host process, and
// returns the final virtual time.
func runOnDevice(t testing.TB, body func(p *des.Proc, d *Device)) des.Time {
	t.Helper()
	sim := des.New()
	dev := NewDevice(sim, testSpec(), 0)
	sim.Spawn("host", func(p *des.Proc) { body(p, dev) })
	end, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// incKernel adds 1 to each byte of buf, one thread per byte.
func incKernel(buf *Buf, n int) *Kernel {
	return &Kernel{
		Name: "inc",
		Func: func(th Thread) int64 {
			i := th.GlobalX()
			if i >= n {
				return ExitCost
			}
			buf.Bytes()[i]++
			return 20
		},
	}
}

func TestFunctionalRoundTrip(t *testing.T) {
	const n = 1000
	host := NewPinnedBuf(n)
	for i := range host.Data {
		host.Data[i] = byte(i % 7)
	}
	out := NewPinnedBuf(n)
	runOnDevice(t, func(p *des.Proc, d *Device) {
		buf := mustMalloc(d, n)
		defer buf.Free()
		st := d.NewStream("s")
		evs := []*des.Event{
			st.CopyH2D(p, buf, 0, host, 0, n),
			st.Launch(p, incKernel(buf, n), Grid1D(n, 128)),
			st.CopyD2H(p, out, 0, buf, 0, n),
		}
		if err := WaitErr(p, evs...); err != nil {
			panic(err)
		}
	})
	for i := range out.Data {
		want := byte(i%7) + 1
		if out.Data[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out.Data[i], want)
		}
	}
}

func TestStreamOrdering(t *testing.T) {
	// Within one stream a kernel must observe the preceding copy even
	// without explicit synchronization between ops.
	const n = 64
	host := NewPinnedBuf(n)
	for i := range host.Data {
		host.Data[i] = 5
	}
	out := NewPinnedBuf(n)
	runOnDevice(t, func(p *des.Proc, d *Device) {
		buf := mustMalloc(d, n)
		defer buf.Free()
		st := d.NewStream("")
		evs := []*des.Event{
			st.CopyH2D(p, buf, 0, host, 0, n),
			st.Launch(p, incKernel(buf, n), Grid1D(n, 32)),
			st.Launch(p, incKernel(buf, n), Grid1D(n, 32)),
			st.CopyD2H(p, out, 0, buf, 0, n),
		}
		if err := WaitErr(p, evs...); err != nil {
			panic(err)
		}
	})
	for i := range out.Data {
		if out.Data[i] != 7 {
			t.Fatalf("out[%d] = %d, want 7 (copy→kernel→kernel ordering broken)", i, out.Data[i])
		}
	}
}

func TestCopyOffsets(t *testing.T) {
	host := NewPinnedBuf(16)
	for i := range host.Data {
		host.Data[i] = byte(i)
	}
	out := NewPinnedBuf(4)
	runOnDevice(t, func(p *des.Proc, d *Device) {
		buf := mustMalloc(d, 32)
		defer buf.Free()
		st := d.NewStream("")
		evs := []*des.Event{
			st.CopyH2D(p, buf, 10, host, 4, 4), // device[10:14] = host[4:8]
			st.CopyD2H(p, out, 0, buf, 10, 4),
		}
		if err := WaitErr(p, evs...); err != nil {
			panic(err)
		}
	})
	for i := 0; i < 4; i++ {
		if out.Data[i] != byte(4+i) {
			t.Fatalf("out[%d] = %d, want %d", i, out.Data[i], 4+i)
		}
	}
}

func TestPinnedFasterThanPageable(t *testing.T) {
	const n = 1 << 20
	measure := func(pinned bool) des.Time {
		var h *HostBuf
		if pinned {
			h = NewPinnedBuf(n)
		} else {
			h = NewHostBuf(n)
		}
		return runOnDevice(t, func(p *des.Proc, d *Device) {
			buf := mustMalloc(d, n)
			defer buf.Free()
			st := d.NewStream("")
			if err := WaitErr(p, st.CopyH2D(p, buf, 0, h, 0, n)); err != nil {
				panic(err)
			}
		})
	}
	tp, tg := measure(true), measure(false)
	if tp >= tg {
		t.Errorf("pinned copy (%v) should be faster than pageable (%v)", tp, tg)
	}
}

func TestBatchingBeatsManySmallKernels(t *testing.T) {
	// The paper's core Fig. 1 effect: one kernel over 32 rows beats 32
	// kernels over 1 row each, because of launch overhead and occupancy.
	const rows, rowLen = 32, 2000
	work := func(th Thread, limit int) int64 {
		if th.GlobalX() >= limit {
			return ExitCost
		}
		return 5000 // uniform busy loop
	}
	small := runOnDevice(t, func(p *des.Proc, d *Device) {
		st := d.NewStream("")
		k := &Kernel{Name: "row", Func: func(th Thread) int64 { return work(th, rowLen) }}
		evs := make([]*des.Event, 0, rows)
		for r := 0; r < rows; r++ {
			evs = append(evs, st.Launch(p, k, Grid1D(rowLen, 128)))
		}
		if err := WaitErr(p, evs...); err != nil {
			panic(err)
		}
	})
	big := runOnDevice(t, func(p *des.Proc, d *Device) {
		st := d.NewStream("")
		k := &Kernel{Name: "batch", Func: func(th Thread) int64 { return work(th, rows*rowLen) }}
		if err := WaitErr(p, st.Launch(p, k, Grid1D(rows*rowLen, 128))); err != nil {
			panic(err)
		}
	})
	if big >= small {
		t.Errorf("batched kernel (%v) should beat %d small kernels (%v)", big, rows, small)
	}
	if ratio := float64(small) / float64(big); ratio < 3 {
		t.Errorf("batching speedup = %.2f, expected >= 3 for underutilized small kernels", ratio)
	}
}

func TestWarpDivergenceCost(t *testing.T) {
	// A kernel where one lane per warp runs 100× longer must cost nearly as
	// much as all lanes running long (lockstep warps).
	const n = 32 * 64 * 30 // full residency
	uniform := runOnDevice(t, func(p *des.Proc, d *Device) {
		st := d.NewStream("")
		k := &Kernel{Name: "u", Func: func(th Thread) int64 { return 10000 }}
		if err := WaitErr(p, st.Launch(p, k, Grid1D(n, 128))); err != nil {
			panic(err)
		}
	})
	divergent := runOnDevice(t, func(p *des.Proc, d *Device) {
		st := d.NewStream("")
		k := &Kernel{Name: "d", Func: func(th Thread) int64 {
			if th.GlobalX()%32 == 0 {
				return 10000
			}
			return 100
		}}
		if err := WaitErr(p, st.Launch(p, k, Grid1D(n, 128))); err != nil {
			panic(err)
		}
	})
	// Per-warp max is 10000 in both cases; times must be equal.
	if divergent != uniform {
		t.Errorf("divergent (%v) should cost the same as uniform (%v): warp time = slowest lane", divergent, uniform)
	}
}

func TestOccupancyLimitedByRegisters(t *testing.T) {
	spec := testSpec()
	g := Grid1D(spec.MaxResidentThreads(), 128)
	lean := &Kernel{Name: "lean", RegsPerThread: 18}
	fat := &Kernel{Name: "fat", RegsPerThread: 255}
	rl := lean.residentWarpsPerSM(spec, g)
	rf := fat.residentWarpsPerSM(spec, g)
	if rl != spec.MaxResidentThreadsPerSM/spec.WarpSize {
		t.Errorf("18-register kernel should hit the thread cap (%d warps), got %d",
			spec.MaxResidentThreadsPerSM/spec.WarpSize, rl)
	}
	if rf >= rl {
		t.Errorf("255-register kernel occupancy (%d) should be below lean kernel (%d)", rf, rl)
	}
	if want := spec.RegistersPerSM / (255 * spec.WarpSize); rf != want {
		t.Errorf("fat kernel resident warps = %d, want %d", rf, want)
	}
}

func TestSharedMemLimitsOccupancy(t *testing.T) {
	spec := testSpec()
	g := Grid1D(spec.MaxResidentThreads(), 256)
	k := &Kernel{Name: "smem", SharedMemPerBlock: spec.SharedMemPerSM / 2}
	// Only 2 blocks of 8 warps fit per SM.
	if got, want := k.residentWarpsPerSM(spec, g), 16; got != want {
		t.Errorf("resident warps = %d, want %d", got, want)
	}
}

func TestCopyComputeOverlap(t *testing.T) {
	// Two streams: one computing, one copying. With pinned memory the total
	// must be close to max(copy, compute), not the sum.
	const n = 8 << 20
	host := NewPinnedBuf(n)
	serial := runOnDevice(t, func(p *des.Proc, d *Device) {
		buf := mustMalloc(d, n)
		defer buf.Free()
		st := d.NewStream("")
		k := &Kernel{Name: "busy", Func: func(Thread) int64 { return 200000 }}
		evs := []*des.Event{
			st.CopyH2D(p, buf, 0, host, 0, n),
			st.Launch(p, k, Grid1D(61440, 128)),
			st.CopyH2D(p, buf, 0, host, 0, n),
			st.Launch(p, k, Grid1D(61440, 128)),
		}
		if err := WaitErr(p, evs...); err != nil {
			panic(err)
		}
	})
	overlapped := runOnDevice(t, func(p *des.Proc, d *Device) {
		bufA := mustMalloc(d, n)
		defer bufA.Free()
		bufB := mustMalloc(d, n)
		defer bufB.Free()
		s1 := d.NewStream("s1")
		s2 := d.NewStream("s2")
		k := &Kernel{Name: "busy", Func: func(Thread) int64 { return 200000 }}
		evs := []*des.Event{
			s1.CopyH2D(p, bufA, 0, host, 0, n),
			s1.Launch(p, k, Grid1D(61440, 128)),
			s2.CopyH2D(p, bufB, 0, host, 0, n),
			s2.Launch(p, k, Grid1D(61440, 128)),
		}
		if err := WaitErr(p, evs...); err != nil {
			panic(err)
		}
	})
	if overlapped >= serial {
		t.Errorf("two streams (%v) should beat one stream (%v) via copy/compute overlap", overlapped, serial)
	}
}

func TestComputeEngineSerializesKernels(t *testing.T) {
	// Kernels from different streams serialize on the single compute engine.
	one := runOnDevice(t, func(p *des.Proc, d *Device) {
		st := d.NewStream("")
		k := &Kernel{Name: "busy", Func: func(Thread) int64 { return 100000 }}
		if err := WaitErr(p, st.Launch(p, k, Grid1D(61440, 128))); err != nil {
			panic(err)
		}
	})
	two := runOnDevice(t, func(p *des.Proc, d *Device) {
		s1 := d.NewStream("s1")
		s2 := d.NewStream("s2")
		k := &Kernel{Name: "busy", Func: func(Thread) int64 { return 100000 }}
		ev1 := s1.Launch(p, k, Grid1D(61440, 128))
		ev2 := s2.Launch(p, k, Grid1D(61440, 128))
		if err := WaitErr(p, ev1, ev2); err != nil {
			panic(err)
		}
	})
	if two < 2*one*9/10 {
		t.Errorf("2 concurrent kernels (%v) should take ~2× one kernel (%v)", two, one)
	}
}

func TestMallocAccountingAndOOM(t *testing.T) {
	sim := des.New()
	spec := testSpec()
	d := NewDevice(sim, spec, 0)
	b1, err := d.Malloc(spec.GlobalMemBytes / 2)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := d.Malloc(spec.GlobalMemBytes); err == nil {
		b.Free()
		t.Fatal("over-allocation should fail")
	}
	b2, err := d.Malloc(spec.GlobalMemBytes / 2)
	if err != nil {
		t.Fatal(err)
	}
	b1.Free()
	b2.Free()
	if d.MemUsed() != 0 {
		t.Errorf("MemUsed = %d after freeing everything", d.MemUsed())
	}
	if d.Stats().PeakMemUsed != spec.GlobalMemBytes {
		t.Errorf("PeakMemUsed = %d, want %d", d.Stats().PeakMemUsed, spec.GlobalMemBytes)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	sim := des.New()
	d := NewDevice(sim, testSpec(), 0)
	b := mustMalloc(d, 16)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	b.Free()
}

func TestCopyRangeChecked(t *testing.T) {
	host := NewPinnedBuf(8)
	sim := des.New()
	d := NewDevice(sim, testSpec(), 0)
	sim.Spawn("host", func(p *des.Proc) {
		buf := mustMalloc(d, 8)
		defer buf.Free()
		st := d.NewStream("")
		// The overrunning copy fails the simulation at enqueue; there is no
		// completion event outcome to wait for.
		_ = st.CopyH2D(p, buf, 4, host, 0, 8)
	})
	if _, err := sim.Run(); err == nil {
		t.Fatal("out-of-range copy should fail the simulation")
	}
}

func TestStats(t *testing.T) {
	const n = 4096
	host := NewPinnedBuf(n)
	sim := des.New()
	d := NewDevice(sim, testSpec(), 0)
	sim.Spawn("host", func(p *des.Proc) {
		buf := mustMalloc(d, n)
		defer buf.Free()
		st := d.NewStream("")
		evs := []*des.Event{
			st.CopyH2D(p, buf, 0, host, 0, n),
			st.Launch(p, incKernel(buf, n), Grid1D(n, 128)),
			st.CopyD2H(p, host, 0, buf, 0, n),
		}
		if err := WaitErr(p, evs...); err != nil {
			panic(err)
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.KernelsLaunched != 1 || s.BytesH2D != n || s.BytesD2H != n {
		t.Errorf("stats = %+v", s)
	}
	if s.KernelBusy <= 0 || s.CopyBusyH2D <= 0 {
		t.Errorf("busy counters should be positive: %+v", s)
	}
}

func TestGrid1D(t *testing.T) {
	g := Grid1D(2000, 128)
	if g.Blocks() != 16 {
		t.Errorf("blocks = %d, want 16", g.Blocks())
	}
	if g.Threads() != 16*128 {
		t.Errorf("threads = %d", g.Threads())
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(2000, 1, 32, 32)
	if g.Grid.X != 63 || g.Grid.Y != 1 {
		t.Errorf("grid = %+v", g.Grid)
	}
	if g.ThreadsPerBlock() != 1024 {
		t.Errorf("block threads = %d", g.ThreadsPerBlock())
	}
}

func TestThreadIndexing(t *testing.T) {
	th := Thread{
		Idx:      Dim3{X: 3, Y: 1},
		Block:    Dim3{X: 2, Y: 0},
		BlockDim: Dim3{X: 4, Y: 2},
		GridDim:  Dim3{X: 5, Y: 3},
	}
	if th.GlobalX() != 11 {
		t.Errorf("GlobalX = %d, want 11", th.GlobalX())
	}
	if th.GlobalY() != 1 {
		t.Errorf("GlobalY = %d, want 1", th.GlobalY())
	}
	// linear: block 2 of 8 threads each, thread-in-block = 1*4+3 = 7 → 23
	if th.GlobalLinear() != 23 {
		t.Errorf("GlobalLinear = %d, want 23", th.GlobalLinear())
	}
}

// Property: every launched thread executes exactly once with a unique
// global linear id.
func TestEveryThreadRunsOnceProperty(t *testing.T) {
	f := func(nSeed, bSeed uint8) bool {
		n := int(nSeed)%500 + 1
		block := []int{32, 64, 128, 256}[int(bSeed)%4]
		g := Grid1D(n, block)
		seen := make([]int32, g.Threads())
		sim := des.New()
		d := NewDevice(sim, testSpec(), 0)
		ok := true
		sim.Spawn("host", func(p *des.Proc) {
			st := d.NewStream("")
			k := &Kernel{Name: "count", Func: func(th Thread) int64 {
				id := th.GlobalLinear()
				seen[id]++ // exclusive access per thread; executor may be parallel but ids are unique
				return 1
			}}
			if err := WaitErr(p, st.Launch(p, k, g)); err != nil {
				panic(err)
			}
		})
		if _, err := sim.Run(); err != nil {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: transfer time is monotone in size and pinned <= pageable.
func TestTransferTimeMonotoneProperty(t *testing.T) {
	d := NewDevice(des.New(), testSpec(), 0)
	f := func(a, b uint32) bool {
		x, y := int64(a)%(1<<24), int64(b)%(1<<24)
		if x > y {
			x, y = y, x
		}
		if d.transferTime(x, true, true) > d.transferTime(y, true, true) {
			return false
		}
		return d.transferTime(x, true, true) <= d.transferTime(x, true, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTitanXPSpec(t *testing.T) {
	s := TitanXPSpec()
	if s.MaxResidentThreads() != 61440 {
		t.Errorf("resident threads = %d, want 61440 (paper §IV-A)", s.MaxResidentThreads())
	}
	if s.SMs != 30 || s.WarpSize != 32 {
		t.Errorf("geometry = %d SMs, warp %d", s.SMs, s.WarpSize)
	}
}

func TestLaunchResultFields(t *testing.T) {
	sim := des.New()
	d := NewDevice(sim, testSpec(), 0)
	var res LaunchResult
	sim.Spawn("host", func(p *des.Proc) {
		st := d.NewStream("")
		k := &Kernel{Name: "k", Func: func(Thread) int64 { return 10 }}
		ev := st.Launch(p, k, Grid1D(2000, 128))
		res = ev.Wait(p).(LaunchResult)
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Threads != 16*128 {
		t.Errorf("Threads = %d", res.Threads)
	}
	if res.OccupiedSMs != 16 {
		t.Errorf("OccupiedSMs = %d, want 16 (16 blocks round-robin on 30 SMs)", res.OccupiedSMs)
	}
	if res.Warps != 16*4 {
		t.Errorf("Warps = %d, want 64", res.Warps)
	}
	if res.ComputeTime <= 0 {
		t.Error("ComputeTime should be positive")
	}
}

func TestFullOccupancyFasterPerThread(t *testing.T) {
	// Time per unit work must shrink as the grid grows toward full
	// residency (the underutilization effect).
	timeFor := func(threads int) float64 {
		end := runOnDevice(t, func(p *des.Proc, d *Device) {
			st := d.NewStream("")
			k := &Kernel{Name: "w", Func: func(Thread) int64 { return 10000 }}
			if err := WaitErr(p, st.Launch(p, k, Grid1D(threads, 128))); err != nil {
				panic(err)
			}
		})
		return float64(end) / float64(threads)
	}
	small := timeFor(2000)  // one Mandelbrot row
	large := timeFor(64000) // a 32-row batch
	if large >= small {
		t.Errorf("per-thread time at 64000 threads (%.2f ns) should beat 2000 threads (%.2f ns)", large, small)
	}
	if small/large < 4 {
		t.Errorf("occupancy gain = %.2f×, expected >= 4× between 2000 and 64000 threads", small/large)
	}
}

func BenchmarkKernelExecution(b *testing.B) {
	sim := des.New()
	d := NewDevice(sim, testSpec(), 0)
	k := &Kernel{Name: "bench", Func: func(Thread) int64 { return 100 }}
	g := Grid1D(61440, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.execute(k, g)
	}
}

// mustMalloc allocates or panics; inside a des process the panic becomes a
// Sim.Run error, which the tests treat as fatal.
func mustMalloc(d *Device, n int64) *Buf {
	b, err := d.Malloc(n)
	if err != nil {
		panic(err)
	}
	return b
}

// TestBindReadsBuffersAtExecution binds a warp kernel after an upload to
// its input is enqueued but before it has run: Bind calls the Warp factory
// at enqueue, so the factory sees the buffer as allocated, while the
// WarpFunc it returns runs at execution and sees the uploaded bytes — in its
// results and in its cycles.
func TestBindReadsBuffersAtExecution(t *testing.T) {
	const n = 256
	host := NewPinnedBuf(n)
	for i := range host.Data {
		host.Data[i] = byte(1 + i%5)
	}
	out := NewPinnedBuf(n)
	var atBind []byte
	spec := &KernelSpec{
		Name: "double",
		Body: func(th Thread, args []any) int64 {
			in, dst := args[0].(*Buf).Bytes(), args[1].(*Buf).Bytes()
			i := th.GlobalX()
			dst[i] = 2 * in[i]
			return int64(in[i])
		},
		Warp: func(args []any) WarpFunc {
			in, dst := args[0].(*Buf), args[1].(*Buf) // captured, not read
			atBind = append([]byte(nil), in.Bytes()...)
			return func(w *Warp) int64 {
				var worst int64
				for i := w.GlobalX(); i < w.GlobalX()+w.N; i++ {
					dst.Bytes()[i] = 2 * in.Bytes()[i]
					worst = max(worst, int64(in.Bytes()[i]))
				}
				return worst
			}
		},
	}
	var res LaunchResult
	runOnDevice(t, func(p *des.Proc, d *Device) {
		in, dst := mustMalloc(d, n), mustMalloc(d, n)
		defer in.Free()
		defer dst.Free()
		st := d.NewStream("s")
		evs := []*des.Event{st.CopyH2D(p, in, 0, host, 0, n)}
		evK := st.Launch(p, spec.Bind(in, dst), Grid1D(n, 32))
		evs = append(evs, evK, st.CopyD2H(p, out, 0, dst, 0, n))
		if err := WaitErr(p, evs...); err != nil {
			panic(err)
		}
		res = evK.Wait(p).(LaunchResult)
	})
	if slices.ContainsFunc(atBind, func(b byte) bool { return b != 0 }) {
		t.Errorf("the Warp factory ran after the upload; it saw %v", atBind[:8])
	}
	for i := range out.Data {
		if want := 2 * host.Data[i]; out.Data[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out.Data[i], want)
		}
	}
	if want := int64(n/32) * 5; res.TotalCycles != want {
		t.Errorf("launch charged %d cycles, want %d: every warp's slowest lane reads 5", res.TotalCycles, want)
	}
}
