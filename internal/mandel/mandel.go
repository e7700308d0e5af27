// Package mandel implements the Mandelbrot Streaming pseudo-application of
// §IV-A: each line of the fractal image is a stream item, computed by a
// 3-stage pipeline (generate → compute → show). The package provides the
// math, the CPU streaming apps for every programming model (SPar,
// FastFlow, TBB — real goroutine runtimes), and the GPU kernels of
// Listings 1–2 for the simulated device.
//
// Pixel is the reference: one pixel's escape count, the per-thread body of
// the simulated GPU kernels. ComputeRow and NewIterCache compute a row in
// blocks of lanes pixels. On amd64 a block iterates in lockstep in one of
// two kernels of row_amd64.s, chosen once from CPUID: 32 lanes on AVX-512F,
// 16 on AVX. Both do Pixel's IEEE operations in Pixel's order, so every
// escape count is bit-identical to Pixel's. CPUs without AVX and every
// other architecture run Pixel, one lane at a time.
package mandel

import (
	"context"

	"streamgpu/internal/gpu"
	"streamgpu/internal/tbb"
)

// Params describes the fractal computation: a dim×dim image over the
// complex plane starting at (InitA, InitB) spanning Range, with escape
// iteration cap Niter.
type Params struct {
	Dim   int
	Niter int
	InitA float64
	InitB float64
	Range float64
}

// TestParams returns a reduced configuration for fast functional tests.
func TestParams() Params {
	return Params{Dim: 128, Niter: 256, InitA: -2.0, InitB: -1.25, Range: 2.5}
}

// Step is the per-pixel increment on the complex plane.
func (p Params) Step() float64 { return p.Range / float64(p.Dim) }

// Pixel computes the escape iteration count for image coordinate (i, j):
// the inner loop of Listing 1.
func (p Params) Pixel(i, j int) int {
	step := p.Step()
	im := p.InitB + step*float64(i)
	cr := p.InitA + step*float64(j)
	a, b := cr, im
	k := 0
	for ; k < p.Niter; k++ {
		a2 := a * a
		b2 := b * b
		if a2+b2 > 4.0 {
			break
		}
		b = 2*a*b + im
		a = a2 - b2 + cr
	}
	return k
}

// Color maps an escape count to the paper's 8-bit pixel value.
func (p Params) Color(k int) byte {
	return byte(255 - k*255/p.Niter)
}

// maxLanes is the widest block a kernel computes.
const maxLanes = 32

// lanes is the block width ComputeRow and NewIterCache run: 32, 16 or 1
// (Pixel's loop), the widest this CPU has. It is set once at init; tests
// set it to run every width.
var lanes = widest()

// ComputeRow fills img (length Dim) with row i's pixels and returns the
// row's total iteration count (the workload measure used for calibration).
// The counts are Pixel's, lanes columns at a time; the row's last block
// runs past Dim, and only its columns inside the image are kept.
func (p Params) ComputeRow(i int, img []byte) int64 {
	var iters int64
	var k [maxLanes]int
	for j := 0; j < p.Dim; j += lanes {
		p.block(i, j, &k)
		for l, kl := range k[:min(lanes, p.Dim-j)] {
			iters += p.iters(kl)
			img[j+l] = p.Color(kl)
		}
	}
	return iters
}

// iters is the number of iterations a pixel with escape count k executed:
// k, plus the escaping one when it escaped.
func (p Params) iters(k int) int64 {
	if k < p.Niter {
		return int64(k) + 1
	}
	return int64(k)
}

// Row is one stream item: a line of the fractal.
type Row struct {
	I   int
	Img []byte
}

// Image collects rows into a complete frame; it is the "show" stage's
// backing store in tests and examples.
type Image struct {
	Dim  int
	Pix  []byte
	rows int
}

// NewImage allocates a dim×dim frame.
func NewImage(dim int) *Image {
	return &Image{Dim: dim, Pix: make([]byte, dim*dim)}
}

// SetRow stores a computed row (the ShowLine analogue).
func (im *Image) SetRow(i int, img []byte) {
	copy(im.Pix[i*im.Dim:(i+1)*im.Dim], img)
	im.rows++
}

// Complete reports whether every row has been set.
func (im *Image) Complete() bool { return im.rows == im.Dim }

// RunSeq computes the frame sequentially and returns it with the total
// iteration count.
func RunSeq(p Params) (*Image, int64) {
	im := NewImage(p.Dim)
	row := make([]byte, p.Dim)
	var iters int64
	for i := 0; i < p.Dim; i++ {
		iters += p.ComputeRow(i, row)
		im.SetRow(i, row)
	}
	return im, iters
}

// RunSPar computes the frame with the SPar DSL: ToStream with a replicated
// compute Stage and an ordered show Stage (Listing 1's annotation schema).
func RunSPar(p Params, workers int) (*Image, error) {
	return RunSParContext(context.Background(), p, workers)
}

// RunSParContext is RunSPar under a context: cancellation or timeout aborts
// the stream and returns the context error (the frame is then incomplete).
func RunSParContext(ctx context.Context, p Params, workers int) (*Image, error) {
	return RunSParObserved(ctx, p, workers, Observer{})
}

// RunFF computes the frame directly on the FastFlow-style runtime: a
// pipeline whose middle stage is an ordered farm.
func RunFF(p Params, workers int) (*Image, error) {
	return RunFFObserved(p, workers, Observer{})
}

// RunTBB computes the frame on the TBB-style runtime: a pipeline with a
// parallel middle filter, throttled by maxTokens live tokens (the knob the
// paper tunes to 2×/5× the worker count).
func RunTBB(p Params, sched *tbb.Scheduler, maxTokens int) *Image {
	return RunTBBObserved(p, sched, maxTokens, Observer{})
}

// --- GPU kernels ---

// mandelCost converts an escape count into device cycles. Mandelbrot runs
// in double precision; on the consumer Pascal parts the paper used, FP64
// issues at 1/32 of FP32 rate, so one iteration (~5 FP64 ops) costs far
// more than its instruction count suggests. iterCycles is the calibrated
// per-iteration cycle cost (internal/bench owns the calibration).

// RowKernel is the naive Listing 1 offload: one kernel per image row, one
// thread per column. Args: i int, p Params, img *gpu.Buf, iterCycles int64.
var RowKernel = &gpu.KernelSpec{
	Name:          "mandel_row",
	RegsPerThread: 18,
	Body: func(t gpu.Thread, args []any) int64 {
		i := args[0].(int)
		p := args[1].(Params)
		img := args[2].(*gpu.Buf)
		iterCycles := args[3].(int64)
		// Linearize across 2-D blocks too, so the same kernel serves the
		// paper's "2D threads and blocks" experiment.
		j := t.Block.X*t.BlockDim.Count() + t.Idx.Y*t.BlockDim.X + t.Idx.X
		if j >= p.Dim {
			return gpu.ExitCost
		}
		k := p.Pixel(i, j)
		img.Bytes()[j] = p.Color(k)
		return int64(k+1)*iterCycles + 20
	},
}

// BatchKernel is Listing 2: one kernel computes a whole batch of rows.
// Args: batch int, batchSize int, p Params, img *gpu.Buf, iterCycles int64.
var BatchKernel = &gpu.KernelSpec{
	Name:          "mandel_kernel",
	RegsPerThread: 18, // "the kernel function in Listing 2 uses only 18 registers"
	Body: func(t gpu.Thread, args []any) int64 {
		batch := args[0].(int)
		batchSize := args[1].(int)
		p := args[2].(Params)
		img := args[3].(*gpu.Buf)
		iterCycles := args[4].(int64)
		threadID := t.GlobalX()
		iBatch := threadID / p.Dim
		i := batch*batchSize + iBatch
		j := threadID - iBatch*p.Dim
		if i < p.Dim && j < p.Dim && iBatch < batchSize {
			k := p.Pixel(i, j)
			img.Bytes()[iBatch*p.Dim+j] = p.Color(k)
			return int64(k+1)*iterCycles + 20
		}
		return gpu.ExitCost
	},
}
