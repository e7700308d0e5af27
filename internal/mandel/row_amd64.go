package mandel

// escape8 sets k[l] to the escape count of the point cr[l] + im·i for each
// of the eight lanes, iterated in lockstep on SSE2 (row_amd64.s) with
// Pixel's IEEE operations in Pixel's order. amd64's Go compiler never fuses
// a multiply and an add, so the unfused kernel matches Pixel bit for bit.
//
//go:noescape
func escape8(cr *[8]float64, im float64, niter int, k *[8]int)

// block8 sets k to the escape counts of pixels (i, j)…(i, j+7) on the SSE2
// kernel, from the same coordinates Pixel computes.
func (p Params) block8(i, j int, k *[8]int) {
	step := p.Step()
	var cr [8]float64
	for l := range cr {
		cr[l] = p.InitA + step*float64(j+l)
	}
	escape8(&cr, p.InitB+step*float64(i), p.Niter, k)
}
