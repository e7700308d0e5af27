//go:build !amd64

package sha1x

import "crypto/sha1"

// sum is crypto/sha1's SHA-1: only amd64 has a SHA-NI path.
func sum(data []byte) [Size]byte { return sha1.Sum(data) }

// sumLanes runs nothing and reports false: only amd64 has the lane loop.
func sumLanes(data []byte, startPos []int32, dst [][Size]byte) bool { return false }
