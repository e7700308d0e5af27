package sha1x

import (
	"crypto/sha1"
	"encoding/binary"

	"streamgpu/internal/cpuid"
)

// useSHANI selects blockSHANI. It is set once from CPUID; tests flip it to
// run both paths.
var useSHANI = hasSHANI()

// hasSHANI reports whether the CPU has the SHA extensions and the SSSE3
// (PSHUFB) and SSE4.1 (PINSRD, PEXTRD) instructions blockSHANI also uses.
func hasSHANI() bool {
	if maxLeaf, _, _, _ := cpuid.CPUID(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid.CPUID(1, 0)
	_, ebx7, _, _ := cpuid.CPUID(7, 0)
	return ebx7&(1<<29) != 0 && ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0
}

//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

// sum is SHA-1 on the SHA extensions where the CPU has them, crypto/sha1
// elsewhere. The whole blocks are hashed in place, the padded tail from a
// stack buffer, so a call allocates nothing.
func sum(data []byte) [Size]byte {
	if !useSHANI {
		return sha1.Sum(data)
	}
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	n := len(data) &^ (BlockSize - 1)
	blockSHANI(&h, data[:n])
	var tail [2 * BlockSize]byte
	t := copy(tail[:], data[n:])
	tail[t] = 0x80
	tl := BlockSize
	if t+9 > BlockSize {
		tl = 2 * BlockSize
	}
	binary.BigEndian.PutUint64(tail[tl-8:], uint64(len(data))<<3)
	blockSHANI(&h, tail[:tl])
	var out [Size]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(out[i*4:], v)
	}
	return out
}
