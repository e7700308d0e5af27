//go:build !amd64

package mandel

// block8 sets k to the escape counts of pixels (i, j)…(i, j+7): Pixel's
// loop, as only amd64 has the SSE2 row kernel.
func (p Params) block8(i, j int, k *[8]int) { p.pixels(i, j, k[:]) }
