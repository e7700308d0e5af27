package sha1x

import "testing"

// paths are the SHA-1 paths the tests run: SumBatch on the AVX-512 lane
// loop (its tails, and Sum20, on SHA-NI), everything on the SHA-NI loop,
// and everything on crypto/sha1.
var paths = []struct {
	name         string
	lanes, shani bool
	skip         string
}{
	{"lanes", true, true, "CPUID reports no AVX-512F and AVX-512BW, XCR0 shows the OS does not save ZMM and opmask state, or the SHA extensions are missing"},
	{"sha-ni", false, true, "CPUID reports no SHA extensions (leaf 7 EBX bit 29) with SSSE3 and SSE4.1"},
	{"crypto-sha1", false, false, ""},
}

// forEachPath runs f once on each of paths, skipping a path this CPU does
// not have.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	defer func(lanes, shani bool) { useLanes, useSHANI = lanes, shani }(useLanes, useSHANI)
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			if p.shani && !hasSHANI() || p.lanes && !hasAVX512BW() {
				t.Skip(p.skip)
			}
			useLanes, useSHANI = p.lanes, p.shani
			f(t)
		})
	}
}
