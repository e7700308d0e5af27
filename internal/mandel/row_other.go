//go:build !amd64

package mandel

// widest is 1: only amd64 has the lockstep row kernels.
func widest() int { return 1 }

// block sets k[0] to the escape count of pixel (i, j), Pixel's loop.
func (p Params) block(i, j int, k *[maxLanes]int) { k[0] = p.Pixel(i, j) }
