package mandel

import "streamgpu/internal/cpuid"

// escape16 and escape32 set k[l] to the escape count of the point
// cr[l] + im·i for each of their 16 or 32 lanes, iterated in lockstep on AVX
// or AVX-512F (row_amd64.s) with Pixel's IEEE operations in Pixel's order.
// amd64's Go compiler never fuses a multiply and an add, so the unfused
// kernels match Pixel bit for bit.
//
//go:noescape
func escape16(cr *[16]float64, im float64, niter int, k *[16]int)

//go:noescape
func escape32(cr *[32]float64, im float64, niter int, k *[32]int)

// widest returns the most lanes a kernel of this CPU runs: 32 where CPUID
// reports AVX-512F, 16 where it reports AVX, each only if XCR0 shows the OS
// saves the registers (YMM: SSE and AVX state, XCR0 bits 1-2; ZMM: also the
// opmask and both ZMM halves, bits 5-7), else 1, Pixel's loop.
func widest() int {
	const osxsave, avx, avx512f = 1 << 27, 1 << 28, 1 << 16
	maxLeaf, _, _, _ := cpuid.CPUID(0, 0)
	if _, _, ecx1, _ := cpuid.CPUID(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return 1
	}
	xcr0 := cpuid.XCR0()
	if xcr0&0x6 != 0x6 {
		return 1
	}
	if maxLeaf >= 7 {
		if _, ebx7, _, _ := cpuid.CPUID(7, 0); ebx7&avx512f != 0 && xcr0&0xe6 == 0xe6 {
			return 32
		}
	}
	return 16
}

// block sets k[:lanes] to the escape counts of pixels (i, j)…(i, j+lanes−1),
// from the same coordinates Pixel computes. Columns past Dim are computed
// too; each lane is independent of the others.
func (p Params) block(i, j int, k *[maxLanes]int) {
	if lanes == 1 {
		k[0] = p.Pixel(i, j)
		return
	}
	step := p.Step()
	var cr [maxLanes]float64
	for l := range cr[:lanes] {
		cr[l] = p.InitA + step*float64(j+l)
	}
	im := p.InitB + step*float64(i)
	if lanes == 32 {
		escape32(&cr, im, p.Niter, k)
		return
	}
	escape16((*[16]float64)(cr[:16]), im, p.Niter, (*[16]int)(k[:16]))
}
