//go:build !amd64

package sha1x

import "testing"

// forEachPath runs f on the one path this architecture has, crypto/sha1.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Run("crypto-sha1", f)
}
