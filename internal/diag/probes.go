package diag

import (
	"fmt"

	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
)

// probeDeviceQuery is the enumeration probe: the spec must be internally
// sane (a degenerate spec would make every later timing meaningless) and
// the device must complete a malloc/free round trip — a fault-killed device
// fails here before any kernel runs.
func probeDeviceQuery(o Options, p *des.Proc, dev *gpu.Device, res *ProbeResult) error {
	s := dev.Spec
	switch {
	case s.SMs <= 0 || s.WarpSize <= 0 || s.MaxResidentThreadsPerSM <= 0:
		return fmt.Errorf("degenerate compute geometry: %d SMs, warp %d", s.SMs, s.WarpSize)
	case s.ClockHz <= 0 || s.IssueWarpsPerCycle <= 0 || s.DepLatencyCycles <= 0:
		return fmt.Errorf("degenerate issue model: clock %v", s.ClockHz)
	case s.GlobalMemBytes <= 0:
		return fmt.Errorf("no global memory")
	case s.H2DPinnedBps <= 0 || s.D2HPinnedBps <= 0 || s.H2DPageableBps <= 0 || s.D2HPageableBps <= 0:
		return fmt.Errorf("degenerate PCIe bandwidths")
	case s.H2DPinnedBps < s.H2DPageableBps || s.D2HPinnedBps < s.D2HPageableBps:
		return fmt.Errorf("pinned bandwidth below pageable")
	}
	buf, err := dev.Malloc(1 << 20)
	if err != nil {
		return fmt.Errorf("malloc: %w", err)
	}
	buf.Free()
	res.Metrics["sms"] = float64(s.SMs)
	res.Metrics["resident_threads"] = float64(s.MaxResidentThreads())
	res.Metrics["clock_ghz"] = s.ClockHz / 1e9
	res.Metrics["mem_gib"] = float64(s.GlobalMemBytes) / (1 << 30)
	res.Metrics["h2d_pinned_spec_gbps"] = s.H2DPinnedBps / 1e9
	return nil
}

// VecAddKernel is the correctness kernel: c[i] = a[i] + b[i] over bytes.
// Args: a, b, c *gpu.Buf, n int.
var VecAddKernel = &gpu.KernelSpec{
	Name:          "diag_vecadd",
	RegsPerThread: 8,
	Body: func(t gpu.Thread, args []any) int64 {
		a := args[0].(*gpu.Buf)
		b := args[1].(*gpu.Buf)
		c := args[2].(*gpu.Buf)
		n := args[3].(int)
		i := t.GlobalX()
		if i >= n {
			return gpu.ExitCost
		}
		c.Bytes()[i] = a.Bytes()[i] + b.Bytes()[i]
		return 12
	},
}

// probeVectorAdd is the correctness probe: seeded inputs up, one elementwise
// kernel, results back, every byte verified — the smallest workload that
// exercises both copy engines and the compute path end to end.
func probeVectorAdd(o Options, p *des.Proc, dev *gpu.Device, res *ProbeResult) error {
	n := o.vectorLen()
	hA, hB, hC := gpu.NewPinnedBuf(int64(n)), gpu.NewPinnedBuf(int64(n)), gpu.NewPinnedBuf(int64(n))
	for i := 0; i < n; i++ {
		hA.Data[i] = byte(i*7 + dev.ID)
		hB.Data[i] = byte(i>>3 + 13)
	}
	dA, dB, dC, freeAll, err := malloc3(dev, int64(n))
	if err != nil {
		return fmt.Errorf("malloc: %w", err)
	}
	defer freeAll()
	st := dev.NewStream("diag-vecadd")
	evA := st.CopyH2D(p, dA, 0, hA, 0, int64(n))
	evB := st.CopyH2D(p, dB, 0, hB, 0, int64(n))
	evK := st.Launch(p, VecAddKernel.Bind(dA, dB, dC, n), gpu.Grid1D(n, 128))
	evC := st.CopyD2H(p, hC, 0, dC, 0, int64(n))
	if err := gpu.WaitErr(p, evA, evB, evK, evC); err != nil {
		return err
	}
	mismatches := 0
	for i := 0; i < n; i++ {
		if hC.Data[i] != hA.Data[i]+hB.Data[i] {
			mismatches++
		}
	}
	res.Metrics["elements"] = float64(n)
	res.Metrics["mismatches"] = float64(mismatches)
	if mismatches > 0 {
		return fmt.Errorf("%d/%d elements wrong", mismatches, n)
	}
	return nil
}

// sweepSizes are the bandwidth probe's transfer sizes in bytes, ascending;
// the largest is the one reported.
var sweepSizes = [...]int{256 << 10, 1 << 20, 4 << 20}

// probeBandwidth is the PCIe sweep: each size × direction × memory kind is
// timed through the virtual clock and must achieve Tolerance × the device's
// own spec. Because the bar is the device's spec, a derated fleet entry
// (narrow link, honest about it) passes while a device underperforming its
// declared link fails.
func probeBandwidth(o Options, p *des.Proc, dev *gpu.Device, res *ProbeResult) error {
	tol := o.tolerance()
	for _, pinned := range []bool{true, false} {
		for _, h2d := range []bool{true, false} {
			var achieved float64
			for _, sz := range sweepSizes {
				var host *gpu.HostBuf
				if pinned {
					host = gpu.NewPinnedBuf(int64(sz))
				} else {
					host = gpu.NewHostBuf(int64(sz))
				}
				buf, err := dev.Malloc(int64(sz))
				if err != nil {
					return fmt.Errorf("malloc %d: %w", sz, err)
				}
				st := dev.NewStream("diag-bw")
				t0 := p.Now()
				var ev *des.Event
				if h2d {
					ev = st.CopyH2D(p, buf, 0, host, 0, int64(sz))
				} else {
					ev = st.CopyD2H(p, host, 0, buf, 0, int64(sz))
				}
				err = gpu.WaitErr(p, ev)
				buf.Free()
				if err != nil {
					return err
				}
				dur := (p.Now() - t0).Seconds()
				if dur <= 0 {
					return fmt.Errorf("%s transfer of %d bytes took no virtual time", bwKey(h2d, pinned), sz)
				}
				achieved = float64(sz) / dur // the largest size wins the report
			}
			spec := specBps(dev.Spec, h2d, pinned)
			res.Metrics[bwKey(h2d, pinned)+"_gbps"] = achieved / 1e9
			if achieved < tol*spec {
				return fmt.Errorf("%s achieved %.2f GB/s, below %.0f%% of spec %.2f GB/s",
					bwKey(h2d, pinned), achieved/1e9, tol*100, spec/1e9)
			}
		}
	}
	return nil
}

// bwKey names one sweep combination.
func bwKey(h2d, pinned bool) string {
	dir, kind := "d2h", "pageable"
	if h2d {
		dir = "h2d"
	}
	if pinned {
		kind = "pinned"
	}
	return dir + "_" + kind
}

// specBps resolves the spec bandwidth for one combination.
func specBps(s gpu.DeviceSpec, h2d, pinned bool) float64 {
	switch {
	case h2d && pinned:
		return s.H2DPinnedBps
	case h2d:
		return s.H2DPageableBps
	case pinned:
		return s.D2HPinnedBps
	default:
		return s.D2HPageableBps
	}
}

// GrindKernel increments every byte in place — cheap compute that makes
// data corruption visible at the end of the grind. Args: buf *gpu.Buf, n int.
var GrindKernel = &gpu.KernelSpec{
	Name:          "diag_grind",
	RegsPerThread: 8,
	Body: func(t gpu.Thread, args []any) int64 {
		buf := args[0].(*gpu.Buf)
		n := args[1].(int)
		i := t.GlobalX()
		if i >= n {
			return gpu.ExitCost
		}
		buf.Bytes()[i]++
		return 8
	},
}

// probeBusGrind is the sustained-traffic probe: GrindOps double-buffered
// upload→kernel→download rounds on two streams, downloads overlapping the
// next round's uploads, with every downloaded byte checked against the
// expected pattern. It catches what one-shot probes miss: faults that only
// surface under continuous bus pressure.
func probeBusGrind(o Options, p *des.Proc, dev *gpu.Device, res *ProbeResult) error {
	const sz = 256 << 10
	ops := o.grindOps()
	hSrc := gpu.NewPinnedBuf(sz)
	for i := range hSrc.Data {
		hSrc.Data[i] = byte(i*13 + dev.ID)
	}
	hDst := [2]*gpu.HostBuf{gpu.NewPinnedBuf(sz), gpu.NewPinnedBuf(sz)}
	dBuf := [2]*gpu.Buf{}
	for i := range dBuf {
		b, err := dev.Malloc(sz)
		if err != nil {
			return fmt.Errorf("malloc: %w", err)
		}
		defer b.Free()
		dBuf[i] = b
	}
	stUp := dev.NewStream("diag-grind-up")
	stDown := dev.NewStream("diag-grind-down")
	check := func(h *gpu.HostBuf) error {
		for i := range h.Data {
			if h.Data[i] != hSrc.Data[i]+1 {
				return fmt.Errorf("data integrity: byte %d = %#x, want %#x", i, h.Data[i], hSrc.Data[i]+1)
			}
		}
		return nil
	}
	t0 := p.Now()
	var prevDown *des.Event
	prevParity := 0
	for i := 0; i < ops; i++ {
		b := i % 2
		evU := stUp.CopyH2D(p, dBuf[b], 0, hSrc, 0, sz)
		evK := stUp.Launch(p, GrindKernel.Bind(dBuf[b], sz), gpu.Grid1D(sz, 128))
		if prevDown != nil {
			// The previous round's download lands while this round's
			// upload+kernel are in flight — that concurrency is the grind.
			if err := gpu.WaitErr(p, prevDown); err != nil {
				return err
			}
			if err := check(hDst[prevParity]); err != nil {
				return err
			}
		}
		if err := gpu.WaitErr(p, evU, evK); err != nil {
			return err
		}
		prevDown = stDown.CopyD2H(p, hDst[b], 0, dBuf[b], 0, sz)
		prevParity = b
	}
	if err := gpu.WaitErr(p, prevDown); err != nil {
		return err
	}
	if err := check(hDst[prevParity]); err != nil {
		return err
	}
	elapsed := (p.Now() - t0).Seconds()
	if elapsed <= 0 {
		return fmt.Errorf("grind took no virtual time")
	}
	res.Metrics["ops"] = float64(ops)
	res.Metrics["sustained_gbps"] = float64(ops) * 2 * sz / elapsed / 1e9
	res.Metrics["overlap_ms"] = dev.Stats().OverlapBusy.Seconds() * 1e3
	return nil
}

// malloc3 allocates three equal device buffers or none.
func malloc3(dev *gpu.Device, n int64) (a, b, c *gpu.Buf, free func(), err error) {
	var bufs []*gpu.Buf
	free = func() {
		for _, b := range bufs {
			b.Free()
		}
	}
	for i := 0; i < 3; i++ {
		buf, err := dev.Malloc(n)
		if err != nil {
			free()
			return nil, nil, nil, nil, err
		}
		bufs = append(bufs, buf)
	}
	return bufs[0], bufs[1], bufs[2], free, nil
}
