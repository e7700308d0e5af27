package mandel

import (
	"math"
	"testing"
)

// rowWindows are the complex-plane windows the exactness tests sweep: the
// paper's frame, three off-centre windows along the set's boundary (deep
// spirals, the cusp, the needle), and windows whose coordinates are NaN,
// ±Inf or subnormal. An infinite Range puts NaN (Inf·0) in column 0 and
// ±Inf in the others, so NaN and non-NaN lanes share a block; a subnormal
// origin puts one subnormal lane beside normal ones.
var rowWindows = []struct {
	name              string
	initA, initB, rng float64
}{
	{"paper", -2.0, -1.25, 2.5},
	{"spiral", -0.7453, 0.1127, 0.0065},
	{"cusp", 0.2501, -0.0004, 0.0008},
	{"needle", -1.9999, -0.0001, 0.0002},
	{"nan", math.NaN(), -1.25, 2.5},
	{"inf-range", -2.0, -1.25, math.Inf(1)},
	{"neg-inf", math.Inf(-1), 0, 1},
	{"subnormal", 5e-324, -5e-324, 2.5},
}

// scalarRow is the reference for row i: Pixel over every column, and the
// iteration sum ComputeRow must return.
func scalarRow(p Params, i int) (ks []int, iters int64) {
	ks = make([]int, p.Dim)
	for j := range ks {
		ks[j] = p.Pixel(i, j)
		iters += int64(ks[j])
		if ks[j] < p.Niter {
			iters++
		}
	}
	return ks, iters
}

// widths are the block widths the tests run: Pixel's loop, AVX's 16 lanes
// and AVX-512F's 32.
var widths = []struct {
	name  string
	lanes int
	skip  string
}{
	{"scalar", 1, ""},
	{"avx-16", 16, "CPUID reports no AVX, or XCR0 shows the OS does not save YMM state"},
	{"avx512-32", 32, "CPUID reports no AVX-512F, or XCR0 shows the OS does not save ZMM and opmask state"},
}

// forEachWidth runs f once at each width of widths, skipping a width this
// CPU does not have.
func forEachWidth(t *testing.T, f func(t *testing.T)) {
	defer func(saved int) { lanes = saved }(lanes)
	for _, w := range widths {
		t.Run(w.name, func(t *testing.T) {
			if w.lanes > widest() {
				t.Skip(w.skip)
			}
			lanes = w.lanes
			f(t)
		})
	}
}

// checkRow fails t unless ComputeRow's pixels and iteration sum and block's
// escape counts for row i equal the scalar Pixel loop's, at the current
// width.
func checkRow(t testing.TB, p Params, i int, img []byte) {
	t.Helper()
	want, wantIters := scalarRow(p, i)
	if got := p.ComputeRow(i, img); got != wantIters {
		t.Fatalf("%+v row %d, %d lanes: ComputeRow iterations %d, Pixel loop %d", p, i, lanes, got, wantIters)
	}
	var k [maxLanes]int
	for j := 0; j < p.Dim; j += lanes {
		p.block(i, j, &k)
		for l, kl := range k[:min(lanes, p.Dim-j)] {
			if kl != want[j+l] {
				t.Fatalf("%+v pixel (%d,%d), %d lanes: escape count %d, Pixel %d", p, i, j+l, lanes, kl, want[j+l])
			}
			if img[j+l] != p.Color(want[j+l]) {
				t.Fatalf("%+v pixel (%d,%d), %d lanes: ComputeRow byte %d, Pixel %d", p, i, j+l, lanes, img[j+l], p.Color(want[j+l]))
			}
		}
	}
}

// frameBudget caps the Pixel iterations one frame of the sweep may cost
// (Dim·Dim·Niter) before the sweep checks a strided subset of its rows
// instead of all of them, and skips NewIterCache.
const frameBudget = 1 << 21

// TestComputeRowMatchesPixel holds ComputeRow and NewIterCache to the
// scalar Pixel loop over whole frames, at every width. The row widths end
// the last block everywhere it can: inside the first block (1, 7, 8, 9,
// 15), on one 16-lane block (16), one lane past a block (17, 33), one lane
// short of one (31), a padded last block (1023) and whole blocks only
// (1024, and 2000 at 16 lanes). Iteration caps run from one to 5000, over every window of
// rowWindows. Frames costing more than frameBudget check every stride-th
// row plus the last.
func TestComputeRowMatchesPixel(t *testing.T) {
	forEachWidth(t, func(t *testing.T) {
		for _, w := range rowWindows {
			for _, dim := range []int{1, 7, 8, 9, 15, 16, 17, 31, 33, 1023, 1024, 2000} {
				for _, niter := range []int{1, 2, 256, 1000, 5000} {
					p := Params{Dim: dim, Niter: niter, InitA: w.initA, InitB: w.initB, Range: w.rng}
					img := make([]byte, dim)
					stride := 1
					for int64(dim/stride)*int64(dim)*int64(niter) > frameBudget {
						stride++
					}
					for i := 0; i < dim; i += stride {
						checkRow(t, p, i, img)
					}
					checkRow(t, p, dim-1, img)
					if stride == 1 {
						checkIterCache(t, p)
					}
				}
			}
		}
	})
}

// checkIterCache fails t unless NewIterCache's counts and total equal the
// scalar Pixel loop's over the whole frame.
func checkIterCache(t *testing.T, p Params) {
	t.Helper()
	c, total := NewIterCache(p)
	var want int64
	for i := 0; i < p.Dim; i++ {
		ks, iters := scalarRow(p, i)
		want += iters
		for j, k := range ks {
			if got := c.kAt(i, j); got != int32(k) {
				t.Fatalf("%+v, %d lanes: NewIterCache count at (%d,%d) = %d, Pixel %d", p, lanes, i, j, got, k)
			}
		}
	}
	if total != want {
		t.Fatalf("%+v, %d lanes: NewIterCache total %d, Pixel loop %d", p, lanes, total, want)
	}
}

// TestComputeRowNiterBelowOne pins every width to Pixel where Pixel's loop
// never runs: every count is 0.
func TestComputeRowNiterBelowOne(t *testing.T) {
	forEachWidth(t, func(t *testing.T) {
		for _, niter := range []int{0, -1, math.MinInt} {
			p := Params{Dim: 17, Niter: niter, InitA: -2.0, InitB: -1.25, Range: 2.5}
			var k [maxLanes]int
			for j := 0; j < p.Dim; j += lanes {
				p.block(p.Dim/2, j, &k)
				for l, kl := range k[:min(lanes, p.Dim-j)] {
					if want := p.Pixel(p.Dim/2, j+l); kl != want {
						t.Fatalf("niter %d column %d: count %d, Pixel %d", niter, j+l, kl, want)
					}
				}
			}
		}
	})
}

// TestComputeRowAllocs pins ComputeRow at zero heap allocations at every
// width: the block buffers live on its stack.
func TestComputeRowAllocs(t *testing.T) {
	p := Params{Dim: 1024, Niter: 256, InitA: -2.0, InitB: -1.25, Range: 2.5}
	img := make([]byte, p.Dim)
	forEachWidth(t, func(t *testing.T) {
		if n := testing.AllocsPerRun(20, func() { p.ComputeRow(p.Dim/2, img) }); n != 0 {
			t.Fatalf("ComputeRow allocates %.1f times per call, want 0", n)
		}
	})
}

// FuzzRowMatchesPixel searches for a window on which a row kernel and the
// scalar Pixel loop disagree on a count, a pixel or the iteration sum, and
// checks each input at every width this CPU has. The window's floats are
// arbitrary bit patterns, so NaN, ±Inf and subnormal coordinates all come
// up.
func FuzzRowMatchesPixel(f *testing.F) {
	for _, w := range rowWindows {
		f.Add(math.Float64bits(w.initA), math.Float64bits(w.initB), math.Float64bits(w.rng), uint16(62), uint16(255), uint16(31))
	}
	f.Add(math.Float64bits(-2), uint64(0), math.Float64bits(2.5), uint16(8), uint16(4095), uint16(0))
	// A subnormal step starts every pixel on c = -2, where a²+b² = 4
	// exactly, with a subnormal b that grows until the pixel escapes. Each
	// coordinate multiply takes a subnormal assist, which is why this window
	// is a seed here rather than a rowWindows entry swept at Dim 2000.
	f.Add(math.Float64bits(-2), uint64(0), math.Float64bits(5e-320), uint16(299), uint16(4095), uint16(7))
	defer func(saved int) { lanes = saved }(lanes)
	f.Fuzz(func(t *testing.T, a, b, r uint64, dim, niter, row uint16) {
		p := Params{
			Dim:   1 + int(dim)%300,
			Niter: 1 + int(niter)%4096,
			InitA: math.Float64frombits(a),
			InitB: math.Float64frombits(b),
			Range: math.Float64frombits(r),
		}
		for _, w := range widths {
			if w.lanes <= widest() {
				lanes = w.lanes
				checkRow(t, p, int(row)%p.Dim, make([]byte, p.Dim))
			}
		}
	})
}
