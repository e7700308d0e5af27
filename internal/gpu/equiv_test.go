package gpu_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"streamgpu/internal/des"
	"streamgpu/internal/diag"
	"streamgpu/internal/gpu"
	"streamgpu/internal/lzss"
	"streamgpu/internal/mandel"
	"streamgpu/internal/sha1x"
)

// The executor-equivalence test: every KernelSpec in the tree, over launch
// geometries chosen to hit each way a warp can be cut, must get from the
// warp-granular executor exactly what a thread-by-thread evaluation gives it
// — the same LaunchResult (ComputeTime, TotalCycles, Warps, OccupiedSMs) and
// the same bytes in every buffer it writes. Virtual time is the repo's
// reference output; this is the test that lets the executor change without
// it moving.

// equivCase is one kernel of the tree, made launchable: build allocates and
// seeds the kernel's buffers on dev and returns the bound kernel plus the
// buffers it writes. x is how many threads along x the problem needs; the
// geometries cover it and then some.
type equivCase struct {
	name  string
	x     int
	build func(t *testing.T, dev *gpu.Device) (*gpu.Kernel, []*gpu.Buf)
}

func malloc(t *testing.T, dev *gpu.Device, n int) *gpu.Buf {
	t.Helper()
	b, err := dev.Malloc(int64(n))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// seeded returns a device buffer holding n reproducible bytes over a small
// alphabet (so LZSS finds matches).
func seeded(t *testing.T, dev *gpu.Device, n int, seed int64) *gpu.Buf {
	b := malloc(t, dev, n)
	rng := rand.New(rand.NewSource(seed))
	for i := range b.Bytes() {
		b.Bytes()[i] = byte('a' + rng.Intn(4))
	}
	return b
}

// blockStarts cuts n bytes into blocks whose boundaries fall at every offset
// inside a warp: lengths cycle through 1..stride with a few long ones.
func blockStarts(n, stride int) []int32 {
	var sp []int32
	for pos, k := 0, 0; pos < n; k++ {
		sp = append(sp, int32(pos))
		step := 1 + k%stride
		if k%7 == 3 {
			step += 5 * stride
		}
		pos += step
	}
	return sp
}

func startPosBuf(t *testing.T, dev *gpu.Device, sp []int32) *gpu.Buf {
	b := malloc(t, dev, len(sp)*4)
	sha1x.PutStartPos(b.Bytes(), sp)
	return b
}

func equivCases() []equivCase {
	const dim = 1100 // ≥ 1024 threads per row: row launches fan out too
	p := mandel.Params{Dim: dim, Niter: 48, InitA: -2.0, InitB: -1.25, Range: 2.5}
	cache, _ := mandel.NewIterCache(p)
	const row, iterCycles = dim / 3, int64(37)
	const batch, batchRows = 2, 3 // rows 6..8 of the frame
	rowCase := func(name string, ks *gpu.KernelSpec, args func(img *gpu.Buf) []any) equivCase {
		return equivCase{name, dim, func(t *testing.T, dev *gpu.Device) (*gpu.Kernel, []*gpu.Buf) {
			img := malloc(t, dev, dim)
			return ks.Bind(args(img)...), []*gpu.Buf{img}
		}}
	}
	batchCase := func(name string, ks *gpu.KernelSpec, args func(img *gpu.Buf) []any) equivCase {
		return equivCase{name, batchRows * dim, func(t *testing.T, dev *gpu.Device) (*gpu.Kernel, []*gpu.Buf) {
			img := malloc(t, dev, batchRows*dim)
			return ks.Bind(args(img)...), []*gpu.Buf{img}
		}}
	}
	direct := func(img *gpu.Buf) []any { return []any{row, p, img, iterCycles} }
	cached := func(img *gpu.Buf) []any { return []any{row, img, iterCycles} }

	const lzN = 3000
	lzStarts := blockStarts(lzN, 9)
	lzCase := func(name string, ks *gpu.KernelSpec, fast bool) equivCase {
		return equivCase{name, lzN, func(t *testing.T, dev *gpu.Device) (*gpu.Kernel, []*gpu.Buf) {
			in := seeded(t, dev, lzN, 5)
			ml, mo := malloc(t, dev, lzN*4), malloc(t, dev, lzN*4)
			args := []any{in, lzN, startPosBuf(t, dev, lzStarts), len(lzStarts), ml, mo}
			if fast {
				args = append(args, lzss.Precompute(in.Bytes(), lzStarts))
			}
			return ks.Bind(args...), []*gpu.Buf{ml, mo}
		}}
	}

	const shaN = 40000
	shaStarts := blockStarts(shaN, 40) // ~1400 blocks of 1..240 bytes

	return []equivCase{
		rowCase("mandel.RowKernel", mandel.RowKernel, direct),
		rowCase("mandel.Row2DKernel", mandel.Row2DKernel, direct),
		batchCase("mandel.BatchKernel", mandel.BatchKernel, func(img *gpu.Buf) []any {
			return []any{batch, batchRows, p, img, iterCycles}
		}),
		rowCase("IterCache.RowKernel", cache.RowKernel(), cached),
		rowCase("IterCache.Row2DKernel", cache.Row2DKernel(), cached),
		batchCase("IterCache.BatchKernel", cache.BatchKernel(), func(img *gpu.Buf) []any {
			return []any{batch, batchRows, img, iterCycles}
		}),
		{"sha1x.Kernel", len(shaStarts), func(t *testing.T, dev *gpu.Device) (*gpu.Kernel, []*gpu.Buf) {
			out := malloc(t, dev, len(shaStarts)*sha1x.Size)
			return sha1x.Kernel.Bind(seeded(t, dev, shaN, 6), startPosBuf(t, dev, shaStarts), len(shaStarts), shaN, out), []*gpu.Buf{out}
		}},
		lzCase("lzss.BruteKernel", lzss.BruteKernel(), false),
		lzCase("lzss.FastKernel", lzss.FastKernel(), true),
		{"diag.VecAddKernel", 2500, func(t *testing.T, dev *gpu.Device) (*gpu.Kernel, []*gpu.Buf) {
			c := malloc(t, dev, 2500)
			return diag.VecAddKernel.Bind(seeded(t, dev, 2500, 7), seeded(t, dev, 2500, 8), c, 2500), []*gpu.Buf{c}
		}},
		{"diag.GrindKernel", 2500, func(t *testing.T, dev *gpu.Device) (*gpu.Kernel, []*gpu.Buf) {
			buf := seeded(t, dev, 2500, 9)
			return diag.GrindKernel.Bind(buf, 2500), []*gpu.Buf{buf}
		}},
	}
}

// equivGrids are launch geometries covering x threads along x, one per way
// the executor can cut a warp.
func equivGrids(x int) []gpu.Grid {
	over := func(bx int) int { return (x + bx - 1) / bx }
	return []gpu.Grid{
		gpu.Grid1D(x, 128),    // the shape every launch in the tree uses; last block partial
		gpu.Grid1D(x, 48),     // every block ends in a half warp
		gpu.Grid1D(x, 100),    // last warp of a block holds 4 threads
		gpu.Grid1D(x+700, 64), // whole blocks out of bounds
		gpu.Grid1D(x/8+1, 32), // too few threads (inline path): most of the problem untouched
		{Grid: gpu.Dim3{X: over(32)}, Block: gpu.Dim3{X: 32, Y: 32}},    // the paper's 2-D attempt: one warp per row
		{Grid: gpu.Dim3{X: over(8)}, Block: gpu.Dim3{X: 8, Y: 8}},       // a warp spans four rows
		{Grid: gpu.Dim3{X: over(5)}, Block: gpu.Dim3{X: 5, Y: 7}},       // runs cut mid-row, 3-thread last warp
		{Grid: gpu.Dim3{X: over(48)}, Block: gpu.Dim3{X: 48, Y: 2}},     // a warp wraps from row 0 into row 1
		{Grid: gpu.Dim3{X: over(4)}, Block: gpu.Dim3{X: 4, Y: 3, Z: 5}}, // 3-D block, 60 threads
	}
}

// reference is the parent commit's (*Device).execute, kept as the oracle:
// every thread of every block gets its own Thread value and one k.Func call
// (never k.Warp), in launch order on the calling goroutine, and the cost
// model — occupancy limit, per-SM issue rate, slowest SM — is restated here
// rather than shared, so the executor cannot drift together with its check.
func reference(spec gpu.DeviceSpec, k *gpu.Kernel, g gpu.Grid) gpu.LaunchResult {
	norm := func(d gpu.Dim3) gpu.Dim3 {
		return gpu.Dim3{X: max(d.X, 1), Y: max(d.Y, 1), Z: max(d.Z, 1)}
	}
	bd, gd := norm(g.Block), norm(g.Grid)
	nBlocks := g.Blocks()
	threadsPerBlock := bd.Count()
	warpsPerBlock := (threadsPerBlock + spec.WarpSize - 1) / spec.WarpSize

	perSM := make([]int64, spec.SMs)
	for b := 0; b < nBlocks; b++ {
		var blockCycles int64
		for w0 := 0; w0 < warpsPerBlock; w0++ {
			var warpMax int64
			for lin := w0 * spec.WarpSize; lin < min((w0+1)*spec.WarpSize, threadsPerBlock); lin++ {
				c := k.Func(gpu.Thread{
					Idx:      gpu.Dim3{X: lin % bd.X, Y: (lin / bd.X) % bd.Y, Z: lin / (bd.X * bd.Y)},
					Block:    gpu.Dim3{X: b % gd.X, Y: (b / gd.X) % gd.Y, Z: b / (gd.X * gd.Y)},
					BlockDim: bd,
					GridDim:  gd,
				})
				warpMax = max(warpMax, c)
			}
			blockCycles += warpMax
		}
		perSM[b%spec.SMs] += blockCycles
	}

	regs := k.RegsPerThread
	if regs <= 0 {
		regs = 16
	}
	resident := min(spec.MaxResidentThreadsPerSM/spec.WarpSize, spec.RegistersPerSM/(regs*spec.WarpSize))
	if k.SharedMemPerBlock > 0 {
		resident = min(resident, max(int(spec.SharedMemPerSM/k.SharedMemPerBlock), 1)*warpsPerBlock)
	}
	resident = max(resident, 1)
	var worst float64
	var total int64
	occupied := 0
	for sm, cycles := range perSM {
		if cycles == 0 {
			continue
		}
		occupied++
		blocksOnSM := nBlocks / spec.SMs
		if sm < nBlocks%spec.SMs {
			blocksOnSM++
		}
		thr := min(float64(min(blocksOnSM*warpsPerBlock, resident))/spec.DepLatencyCycles, spec.IssueWarpsPerCycle)
		worst = max(worst, float64(cycles)/thr/spec.ClockHz)
		total += cycles
	}
	return gpu.LaunchResult{
		ComputeTime: des.Duration(worst * 1e9),
		Threads:     g.Threads(),
		Warps:       nBlocks * warpsPerBlock,
		OccupiedSMs: occupied,
		TotalCycles: total,
	}
}

// execute launches k on dev's executor the way every caller does — through
// a stream — and returns the launch's result.
func execute(t *testing.T, dev *gpu.Device, k *gpu.Kernel, g gpu.Grid) gpu.LaunchResult {
	t.Helper()
	var res gpu.LaunchResult
	dev.Sim().Spawn("host", func(p *des.Proc) {
		res = dev.NewStream("").Launch(p, k, g).Wait(p).(gpu.LaunchResult)
	})
	if _, err := dev.Sim().Run(); err != nil {
		t.Fatal(err)
	}
	return res
}

// launchBoth runs c under g twice on fresh devices — thread by thread, and
// through the executor (after mutate, if any, has had its way with the
// kernel) — and describes every difference; "" means equivalent.
func launchBoth(t *testing.T, c equivCase, g gpu.Grid, mutate func(*gpu.Kernel)) string {
	t.Helper()
	type outcome struct {
		res  gpu.LaunchResult
		bufs [][]byte
	}
	run := func(exec func(*gpu.Device, *gpu.Kernel) gpu.LaunchResult) outcome {
		dev := gpu.NewDevice(des.New(), gpu.TitanXPSpec(), 0)
		k, outs := c.build(t, dev)
		o := outcome{res: exec(dev, k)}
		for _, b := range outs {
			o.bufs = append(o.bufs, b.Bytes())
		}
		return o
	}
	want := run(func(dev *gpu.Device, k *gpu.Kernel) gpu.LaunchResult { return reference(dev.Spec, k, g) })
	got := run(func(dev *gpu.Device, k *gpu.Kernel) gpu.LaunchResult {
		if mutate != nil {
			mutate(k)
		}
		return execute(t, dev, k, g)
	})
	var diffs []string
	if got.res != want.res {
		diffs = append(diffs, fmt.Sprintf("LaunchResult %+v, per-thread reference %+v", got.res, want.res))
	}
	for i := range want.bufs {
		if !bytes.Equal(got.bufs[i], want.bufs[i]) {
			diffs = append(diffs, fmt.Sprintf("output buffer %d differs", i))
		}
	}
	return strings.Join(diffs, "; ")
}

func TestExecutorEquivalence(t *testing.T) {
	// More host workers than this box may have cores: the fan-out merge must
	// not depend on who ran which block.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, g := range equivGrids(c.x) {
				if d := launchBoth(t, c, g, nil); d != "" {
					t.Errorf("%v: %s", g, d)
				}
			}
		})
	}
}

// TestExecutorEquivalenceCatchesMutants is the test's own check: a warp body
// that charges some lane other than the slowest, and a fast FindMatch body
// that finds its block once and never advances, must both be told apart
// from the per-thread reference on geometries the table contains.
func TestExecutorEquivalenceCatchesMutants(t *testing.T) {
	cases := map[string]equivCase{}
	for _, c := range equivCases() {
		cases[c.name] = c
	}

	// Charge the run's last lane instead of its slowest.
	lastLane := func(k *gpu.Kernel) {
		f := k.Func
		k.Warp = func(w gpu.Warp) int64 {
			var c int64
			th := w.Thread
			for i := 0; i < w.N; i++ {
				c = f(th)
				th.Idx.X++
			}
			return c
		}
	}
	row := cases["mandel.RowKernel"]
	if d := launchBoth(t, row, gpu.Grid1D(row.x, 128), lastLane); !strings.Contains(d, "LaunchResult") {
		t.Errorf("a warp charged its last lane, not its slowest, and the test saw %q", d)
	}

	// Price every thread of a run against the block its first thread is in:
	// the per-thread cost with the thread's own window span swapped for the
	// span measured from that block's start.
	fast := cases["lzss.FastKernel"]
	starts := blockStarts(fast.x, 9)
	span := func(i, from int) int64 {
		lo := 0
		for _, s := range starts {
			if int(s) <= from {
				lo = int(s)
			}
		}
		return 3 * int64(min(i-lo, lzss.WindowSize))
	}
	noAdvance := func(k *gpu.Kernel) {
		f := k.Func
		k.Warp = func(w gpu.Warp) int64 {
			var worst int64
			th, i0 := w.Thread, w.GlobalX()
			for i := i0; i < i0+w.N; i++ {
				c := f(th)
				if i < fast.x {
					c += span(i, i0) - span(i, i)
				}
				worst = max(worst, c)
				th.Idx.X++
			}
			return worst
		}
	}
	if d := launchBoth(t, fast, gpu.Grid1D(fast.x, 128), noAdvance); !strings.Contains(d, "LaunchResult") {
		t.Errorf("the fast kernel never advanced past a block boundary and the test saw %q", d)
	}
	// The same harness with nothing broken must pass, or the two checks
	// above prove nothing.
	if d := launchBoth(t, fast, gpu.Grid1D(fast.x, 128), func(k *gpu.Kernel) { k.Warp = gpu.PerThread(k.Func) }); d != "" {
		t.Errorf("unmutated body through the mutation hook: %s", d)
	}
}
