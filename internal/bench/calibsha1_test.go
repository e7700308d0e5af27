package bench

import (
	"fmt"
	"testing"
)

// TestCalibSHA1KnownVectors checks the frozen calibration probe still
// computes SHA-1 (FIPS 180-4 / RFC 3174 vectors, incl. the two-block
// padding case), so calib keeps timing the same work.
func TestCalibSHA1KnownVectors(t *testing.T) {
	for _, v := range []struct{ in, want string }{
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
	} {
		if got := fmt.Sprintf("%x", calibSHA1([]byte(v.in))); got != v.want {
			t.Errorf("calibSHA1(%q) = %s, want %s", v.in, got, v.want)
		}
	}
}
