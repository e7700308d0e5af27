package sha1x

import "testing"

// forEachPath runs f once on crypto/sha1 and once on the SHA-NI loop, which
// it skips on a CPU without the SHA extensions.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	defer func(saved bool) { useSHANI = saved }(useSHANI)
	for _, p := range []struct {
		name  string
		shani bool
	}{{"crypto-sha1", false}, {"sha-ni", true}} {
		t.Run(p.name, func(t *testing.T) {
			if p.shani && !hasSHANI() {
				t.Skip("CPUID reports no SHA extensions (leaf 7 EBX bit 29) with SSSE3 and SSE4.1")
			}
			useSHANI = p.shani
			f(t)
		})
	}
}
