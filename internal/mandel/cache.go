package mandel

import (
	"runtime"
	"sync"

	"streamgpu/internal/gpu"
)

// Row2DKernel models the paper's failed "2D of threads and blocks"
// configuration (§IV-A reports it performed *worse* than 1D: 1.6× vs
// 3.1×). The launch uses (32,32) blocks whose y threads redundantly
// recompute the same pixel — a classic botched 2-D mapping: 32× the work,
// pushing every SM into the throughput-bound regime instead of spreading
// rows thinly across SMs. Args: i int, p Params, img *gpu.Buf,
// iterCycles int64.
var Row2DKernel = &gpu.KernelSpec{
	Name:          "mandel_row_2d",
	RegsPerThread: 18,
	Body: func(t gpu.Thread, args []any) int64 {
		i := args[0].(int)
		p := args[1].(Params)
		img := args[2].(*gpu.Buf)
		iterCycles := args[3].(int64)
		j := t.Block.X*t.BlockDim.X + t.Idx.X // threadIdx.y ignored: redundant lanes
		if j >= p.Dim {
			return gpu.ExitCost
		}
		k := p.Pixel(i, j)
		img.Bytes()[j] = p.Color(k)
		return int64(k+1)*iterCycles + 20
	},
}

// Grid2DForRow is the launch geometry for Row2DKernel: (32,32) blocks
// covering the row in x.
func Grid2DForRow(dim int) gpu.Grid {
	return gpu.Grid{
		Grid:  gpu.Dim3{X: (dim + 31) / 32},
		Block: gpu.Dim3{X: 32, Y: 32},
	}
}

// IterCache holds the escape count of every pixel, computed once. The
// experiment harness sweeps a dozen GPU configurations over the same frame;
// the cached kernels below produce bit-identical pixels and identical cost
// to the direct kernels without recomputing the fractal per configuration
// (the same fast-functional pattern as lzss.FastKernel; equivalence is
// covered by tests).
type IterCache struct {
	P Params
	K []int32 // escape count per pixel, row-major
}

// NewIterCache computes the full frame's escape counts in parallel on the
// host and returns the cache together with the total iteration count
// (Σ k+1, the sequential-workload measure).
func NewIterCache(p Params) (*IterCache, int64) {
	c := &IterCache{P: p, K: make([]int32, p.Dim*p.Dim)}
	var total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	rowCh := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local int64
			var k [maxLanes]int
			for i := range rowCh {
				row := c.K[i*p.Dim : (i+1)*p.Dim]
				for j := 0; j < p.Dim; j += lanes {
					p.block(i, j, &k)
					for l, kl := range k[:min(lanes, p.Dim-j)] {
						row[j+l] = int32(kl)
						local += p.iters(kl)
					}
				}
			}
			mu.Lock()
			total += local
			mu.Unlock()
		}()
	}
	for i := 0; i < p.Dim; i++ {
		rowCh <- i
	}
	close(rowCh)
	wg.Wait()
	return c, total
}

// costOf converts an escape count to device cycles, bit-identical to the
// direct kernels' accounting.
func costOf(k int32, _ int, iterCycles int64) int64 {
	return int64(k+1)*iterCycles + 20
}

// kAt is the cached escape count of pixel (i, j), clamped like Pixel.
func (c *IterCache) kAt(i, j int) int32 { return c.K[i*c.P.Dim+j] }

// RowKernel returns the cached equivalent of RowKernel.
// Args: i int, img *gpu.Buf, iterCycles int64.
func (c *IterCache) RowKernel() *gpu.KernelSpec {
	return &gpu.KernelSpec{
		Name:          "mandel_row_cached",
		RegsPerThread: 18,
		Body: func(t gpu.Thread, args []any) int64 {
			i := args[0].(int)
			img := args[1].(*gpu.Buf)
			iterCycles := args[2].(int64)
			j := t.Block.X*t.BlockDim.Count() + t.Idx.Y*t.BlockDim.X + t.Idx.X
			if j >= c.P.Dim {
				return gpu.ExitCost
			}
			k := c.kAt(i, j)
			img.Bytes()[j] = c.P.Color(int(k))
			return costOf(k, c.P.Niter, iterCycles)
		},
	}
}

// Row2DKernel returns the cached equivalent of Row2DKernel (redundant y
// lanes, same cost semantics). Args: i int, img *gpu.Buf, iterCycles int64.
func (c *IterCache) Row2DKernel() *gpu.KernelSpec {
	return &gpu.KernelSpec{
		Name:          "mandel_row_2d_cached",
		RegsPerThread: 18,
		Body: func(t gpu.Thread, args []any) int64 {
			i := args[0].(int)
			img := args[1].(*gpu.Buf)
			iterCycles := args[2].(int64)
			j := t.Block.X*t.BlockDim.X + t.Idx.X
			if j >= c.P.Dim {
				return gpu.ExitCost
			}
			k := c.kAt(i, j)
			img.Bytes()[j] = c.P.Color(int(k))
			return costOf(k, c.P.Niter, iterCycles)
		},
	}
}

// BatchKernel returns the cached equivalent of BatchKernel.
// Args: batch int, batchSize int, img *gpu.Buf, iterCycles int64.
func (c *IterCache) BatchKernel() *gpu.KernelSpec {
	return &gpu.KernelSpec{
		Name:          "mandel_kernel_cached",
		RegsPerThread: 18,
		Body: func(t gpu.Thread, args []any) int64 {
			batch := args[0].(int)
			batchSize := args[1].(int)
			img := args[2].(*gpu.Buf)
			iterCycles := args[3].(int64)
			threadID := t.GlobalX()
			iBatch := threadID / c.P.Dim
			i := batch*batchSize + iBatch
			j := threadID - iBatch*c.P.Dim
			if i < c.P.Dim && j < c.P.Dim && iBatch < batchSize {
				k := c.kAt(i, j)
				img.Bytes()[iBatch*c.P.Dim+j] = c.P.Color(int(k))
				return costOf(k, c.P.Niter, iterCycles)
			}
			return gpu.ExitCost
		},
	}
}
