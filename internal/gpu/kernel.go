package gpu

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"streamgpu/internal/des"
)

// Dim3 is a CUDA-style 3-component extent. Zero components are treated as 1.
type Dim3 struct {
	X, Y, Z int
}

// norm returns the dimension with zeroes replaced by 1.
func (d Dim3) norm() Dim3 {
	if d.X == 0 {
		d.X = 1
	}
	if d.Y == 0 {
		d.Y = 1
	}
	if d.Z == 0 {
		d.Z = 1
	}
	return d
}

// Count is the product of the (normalized) components.
func (d Dim3) Count() int {
	d = d.norm()
	return d.X * d.Y * d.Z
}

// Grid is a kernel launch configuration: grid-of-blocks × block-of-threads,
// the <<<grid, block>>> pair of CUDA.
type Grid struct {
	Grid  Dim3
	Block Dim3
}

// Grid1D covers n threads with 1-dimensional blocks of blockSize threads —
// the standard `(n + b - 1) / b` launch idiom.
func Grid1D(n, blockSize int) Grid {
	if blockSize <= 0 {
		panic("gpu: blockSize must be positive")
	}
	return Grid{
		Grid:  Dim3{X: (n + blockSize - 1) / blockSize},
		Block: Dim3{X: blockSize},
	}
}

// Grid2D covers an nx × ny domain with 2-dimensional bx × by blocks — the
// configuration §IV-A reports as performing worse than 1D for the
// Mandelbrot row kernel.
func Grid2D(nx, ny, bx, by int) Grid {
	if bx <= 0 || by <= 0 {
		panic("gpu: block dims must be positive")
	}
	return Grid{
		Grid:  Dim3{X: (nx + bx - 1) / bx, Y: (ny + by - 1) / by},
		Block: Dim3{X: bx, Y: by},
	}
}

// Blocks reports the number of thread blocks launched.
func (g Grid) Blocks() int { return g.Grid.Count() }

// ThreadsPerBlock reports the block size in threads.
func (g Grid) ThreadsPerBlock() int { return g.Block.Count() }

// Threads reports the total launched threads.
func (g Grid) Threads() int { return g.Blocks() * g.ThreadsPerBlock() }

// Thread is the per-thread execution context handed to kernel functions,
// mirroring CUDA's threadIdx/blockIdx/blockDim/gridDim builtins.
type Thread struct {
	Idx      Dim3 // threadIdx
	Block    Dim3 // blockIdx
	BlockDim Dim3
	GridDim  Dim3
}

// GlobalX is blockIdx.x*blockDim.x + threadIdx.x.
func (t Thread) GlobalX() int { return t.Block.X*t.BlockDim.X + t.Idx.X }

// GlobalY is blockIdx.y*blockDim.y + threadIdx.y.
func (t Thread) GlobalY() int { return t.Block.Y*t.BlockDim.Y + t.Idx.Y }

// GlobalLinear is the flattened global id with x fastest, then y, then z —
// the order warps are formed in.
func (t Thread) GlobalLinear() int {
	bd := t.BlockDim.norm()
	gd := t.GridDim.norm()
	threadInBlock := (t.Idx.Z*bd.Y+t.Idx.Y)*bd.X + t.Idx.X
	blockLinear := (t.Block.Z*gd.Y+t.Block.Y)*gd.X + t.Block.X
	return blockLinear*bd.Count() + threadInBlock
}

// ThreadFunc is a per-thread kernel body: it returns the thread's cost in
// device cycles. The returned cycles drive the timing model; within a warp
// the maximum over threads is charged (lockstep execution — warp divergence
// costs what the slowest lane costs).
type ThreadFunc func(t Thread) int64

// Warp is what the executor hands a kernel body: a run of N threads of one
// warp with consecutive threadIdx.x. The embedded Thread is the run's first
// thread; the others differ only in Idx.X. A warp of a 1-D block (or of a
// block whose x extent is a multiple of the warp size) is one run; a warp
// that spans several rows of a narrow 2-D block arrives as one run per row.
type Warp struct {
	Thread
	N int
}

// WarpFunc is a warp-granular kernel body: it does the work of every thread
// in the run and returns the maximum of their cycle costs.
type WarpFunc func(w Warp) int64

// ExitCost is the conventional cycle cost for a thread that fails its bounds
// check and returns immediately.
const ExitCost = 4

// Kernel is a device function plus its resource footprint.
type Kernel struct {
	Name string
	// RegsPerThread limits SM occupancy (registers are partitioned among
	// resident threads). Zero means a small kernel (16 registers).
	RegsPerThread int
	// SharedMemPerBlock limits how many blocks fit on an SM. Zero = none.
	SharedMemPerBlock int64
	// Func defines the kernel thread by thread. The executor runs it through
	// PerThread unless Warp is set.
	Func ThreadFunc
	// Warp, when set, is the body the executor runs. It must do what Func
	// does for every thread of the run (the executor-equivalence test holds
	// the two to equal results and equal cycles).
	Warp WarpFunc
}

// PerThread adapts a per-thread body to the executor's warp granularity:
// call f for each thread of the run, return the slowest.
func PerThread(f ThreadFunc) WarpFunc {
	return func(w Warp) int64 {
		t := w.Thread
		var worst int64
		for i := 0; i < w.N; i++ {
			worst = max(worst, f(t))
			t.Idx.X++
		}
		return worst
	}
}

// residentWarpsPerSM computes the occupancy limit for this kernel on spec:
// the minimum of the thread cap, the register file cap and the shared-memory
// block cap, in warps.
func (k *Kernel) residentWarpsPerSM(spec DeviceSpec, g Grid) int {
	warpsPerBlock := (g.ThreadsPerBlock() + spec.WarpSize - 1) / spec.WarpSize
	byThreads := spec.MaxResidentThreadsPerSM / spec.WarpSize
	regs := k.RegsPerThread
	if regs <= 0 {
		regs = 16
	}
	byRegs := spec.RegistersPerSM / (regs * spec.WarpSize)
	limit := byThreads
	if byRegs < limit {
		limit = byRegs
	}
	if k.SharedMemPerBlock > 0 {
		blocksBySmem := int(spec.SharedMemPerSM / k.SharedMemPerBlock)
		if blocksBySmem < 1 {
			blocksBySmem = 1
		}
		bySmem := blocksBySmem * warpsPerBlock
		if bySmem < limit {
			limit = bySmem
		}
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// LaunchResult reports what a kernel execution did and cost.
type LaunchResult struct {
	ComputeTime des.Duration // device-side execution time (excl. launch overhead)
	Threads     int
	Warps       int
	// OccupiedSMs counts SMs that received at least one block.
	OccupiedSMs int
	// TotalCycles is the divergence-adjusted warp-cycle total.
	TotalCycles int64
}

// execState is a device's executor scratch, kept across launches so a launch
// allocates nothing that scales with the grid or the SM count. One launch
// runs at a time per device: the compute engine serializes kernels and the
// simulation is cooperative.
type execState struct {
	perSM []int64      // divergence-adjusted cycle total per SM
	lanes [][]int64    // partial per-SM totals of the extra host workers
	next  atomic.Int64 // first unclaimed block of a fanned-out launch
	wg    sync.WaitGroup
}

// zeroed returns *p resized to n zeroed entries, reusing its capacity.
func zeroed(p *[]int64, n int) []int64 {
	if cap(*p) < n {
		*p = make([]int64, n)
	}
	*p = (*p)[:n]
	clear(*p)
	return *p
}

// launch is one kernel execution's geometry as the block walk needs it.
type launch struct {
	body            WarpFunc
	bd, gd          Dim3
	threadsPerBlock int
	warpSize, sms   int
}

// run executes blocks [b0, b1) and adds each block's cycles to its SM's
// entry of acc. Blocks are assigned to SMs round-robin in launch order, as
// hardware block schedulers do for uniform kernels. A block's threads are
// walked warp by warp (x fastest); a warp costs its slowest thread.
func (l *launch) run(b0, b1 int, acc []int64) {
	w := Warp{Thread: Thread{BlockDim: l.bd, GridDim: l.gd}}
	for b := b0; b < b1; b++ {
		w.Block = Dim3{X: b % l.gd.X, Y: (b / l.gd.X) % l.gd.Y, Z: b / (l.gd.X * l.gd.Y)}
		var blockCycles int64
		for lo := 0; lo < l.threadsPerBlock; lo += l.warpSize {
			hi := min(lo+l.warpSize, l.threadsPerBlock)
			var warpMax int64
			// The warp's linear range [lo, hi) is one run per block row it
			// touches.
			for lin := lo; lin < hi; lin += w.N {
				w.Idx = Dim3{X: lin % l.bd.X, Y: (lin / l.bd.X) % l.bd.Y, Z: lin / (l.bd.X * l.bd.Y)}
				w.N = min(l.bd.X-w.Idx.X, hi-lin)
				if c := l.body(w); c > warpMax {
					warpMax = c
				}
			}
			blockCycles += warpMax
		}
		acc[b%l.sms] += blockCycles
	}
}

const (
	// fanOutThreads is the smallest launch worth spreading over host cores:
	// below it the goroutine hand-off costs more than the kernel body.
	fanOutThreads = 1024
	// chunksPerWorker sizes the block chunks workers claim, so a worker that
	// drew expensive blocks does not hold the launch up.
	chunksPerWorker = 8
)

// execute runs the kernel functionally and evaluates the cost model. It is
// invoked by the stream engine when the kernel op reaches the head of its
// stream. Large grids fan out over the host's cores, each worker claiming
// chunks of blocks from an atomic index; per-SM cycle totals are sums, so
// the result does not depend on who ran which block.
func (d *Device) execute(k *Kernel, g Grid) LaunchResult {
	spec := d.Spec
	nBlocks := g.Blocks()
	l := launch{
		body:            k.Warp,
		bd:              g.Block.norm(),
		gd:              g.Grid.norm(),
		threadsPerBlock: g.ThreadsPerBlock(),
		warpSize:        spec.WarpSize,
		sms:             spec.SMs,
	}
	if l.body == nil {
		l.body = PerThread(k.Func)
	}

	x := &d.exec
	perSM := zeroed(&x.perSM, spec.SMs)
	workers := 1
	if g.Threads() >= fanOutThreads {
		workers = min(runtime.GOMAXPROCS(0), nBlocks)
	}
	if workers == 1 {
		l.run(0, nBlocks, perSM)
	} else {
		chunk := max(1, nBlocks/(workers*chunksPerWorker))
		x.next.Store(0)
		claim := func(acc []int64) {
			for {
				b1 := int(x.next.Add(int64(chunk)))
				if b1-chunk >= nBlocks {
					return
				}
				l.run(b1-chunk, min(b1, nBlocks), acc)
			}
		}
		for len(x.lanes) < workers-1 {
			x.lanes = append(x.lanes, nil)
		}
		x.wg.Add(workers - 1)
		for i := 0; i < workers-1; i++ {
			acc := zeroed(&x.lanes[i], spec.SMs)
			go func() {
				defer x.wg.Done()
				claim(acc)
			}()
		}
		claim(perSM)
		x.wg.Wait()
		for _, lane := range x.lanes[:workers-1] {
			for sm, c := range lane {
				perSM[sm] += c
			}
		}
	}
	return d.cost(k, g, perSM)
}

// cost turns a launch's per-SM cycle totals into its LaunchResult.
func (d *Device) cost(k *Kernel, g Grid, perSM []int64) LaunchResult {
	spec := d.Spec
	nBlocks := g.Blocks()
	warpsPerBlock := (g.ThreadsPerBlock() + spec.WarpSize - 1) / spec.WarpSize

	// Cost model: each SM issues min(ipc, k/depLatency) warp-instructions
	// per cycle where k is its resident-warp concurrency; the kernel runs
	// as long as its slowest SM.
	resident := k.residentWarpsPerSM(spec, g)
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
		kWarps := blocksOnSM * warpsPerBlock
		if kWarps > resident {
			kWarps = resident
		}
		thr := float64(kWarps) / spec.DepLatencyCycles
		if thr > spec.IssueWarpsPerCycle {
			thr = spec.IssueWarpsPerCycle
		}
		t := float64(cycles) / thr / spec.ClockHz
		if t > worst {
			worst = t
		}
		total += cycles
	}
	return LaunchResult{
		ComputeTime: des.Duration(worst * 1e9),
		Threads:     g.Threads(),
		Warps:       nBlocks * warpsPerBlock,
		OccupiedSMs: occupied,
		TotalCycles: total,
	}
}

func (g Grid) String() string {
	return fmt.Sprintf("<<<(%d,%d,%d),(%d,%d,%d)>>>",
		g.Grid.norm().X, g.Grid.norm().Y, g.Grid.norm().Z,
		g.Block.norm().X, g.Block.norm().Y, g.Block.norm().Z)
}
