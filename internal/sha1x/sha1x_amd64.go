package sha1x

import (
	"crypto/sha1"
	"encoding/binary"
	"math"

	"streamgpu/internal/cpuid"
)

// useSHANI selects blockSHANI, and useLanes routes SumBatch through
// lanes16, whose tails run on blockSHANI. Both are set once from CPUID;
// tests flip them to run every path.
var (
	useSHANI = hasSHANI()
	useLanes = useSHANI && hasAVX512BW()
)

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

// hasAVX512BW reports whether lanes16 can run: CPUID reports AVX-512F and
// AVX-512BW (the 512-bit VPSHUFB), and the OS saves the AVX-512 state
// (cpuid.AVX512).
func hasAVX512BW() bool {
	const avx512f, avx512bw = 1 << 16, 1 << 30
	ebx7, _, ok := cpuid.AVX512()
	return ok && ebx7&(avx512f|avx512bw) == avx512f|avx512bw
}

//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

// lanes16 compresses n >= 1 whole blocks in each of 16 lanes into st (lane
// l's state is st[0][l]..st[4][l]), lane l reading data[off[l]:off[l]+64n],
// and advances every off[l] by 64n (sha1x_amd64.s).
//
//go:noescape
func lanes16(st *[5][16]uint32, data []byte, off *[16]uint32, n int)

// init0 is SHA-1's initial state.
var init0 = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

// sum is SHA-1 on the SHA extensions where the CPU has them, crypto/sha1
// elsewhere.
func sum(data []byte) [Size]byte {
	if !useSHANI {
		return sha1.Sum(data)
	}
	h := init0
	return finish(&h, data, 0, 0, len(data))
}

// finish returns the digest of data[lo:hi], given h, the state after the
// whole blocks of data[lo:off]: the whole blocks of data[off:hi] are
// hashed in place, the padded tail from a stack buffer, so a call allocates
// nothing.
func finish(h *[5]uint32, data []byte, off, lo, hi int) [Size]byte {
	n := off + (hi-off)&^(BlockSize-1)
	blockSHANI(h, data[off:n])
	var tail [2 * BlockSize]byte
	t := copy(tail[:], data[n:hi])
	tail[t] = 0x80
	tl := BlockSize
	if t+9 > BlockSize {
		tl = 2 * BlockSize
	}
	binary.BigEndian.PutUint64(tail[tl-8:], uint64(hi-lo)<<3)
	blockSHANI(h, tail[:tl])
	var out [Size]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// drainBelow is the number of busy lanes under which, once every block of
// the batch has started, lanes16 no longer pays: the busy lanes finish on
// SHA-NI instead.
const drainBelow = 6

// sumLanes is SumBatch on lanes16 where useLanes holds and every offset
// fits the gathers' signed 32-bit indices, and reports whether it ran. Each
// lane hashes one block of at least 64 bytes; shorter blocks go
// straight to sum. Every lanes16 call runs the fewest whole blocks a busy
// lane has left, so at least one lane runs out; its padded tail is hashed
// from its state on SHA-NI and the lane takes the next block. Idle lanes
// read a busy lane's blocks, and their states are never read.
func sumLanes(data []byte, startPos []int32, dst [][Size]byte) bool {
	if !useLanes || len(data) > math.MaxInt32 {
		return false
	}
	var (
		st     [5][16]uint32
		off    [16]uint32
		lo, hi [16]int
		blk    [16]int // the block lane l hashes, -1 while idle
		next   int     // the first block no lane has taken
	)
	for l := range blk {
		blk[l] = -1
	}
	done := func(l int) {
		h := [5]uint32{st[0][l], st[1][l], st[2][l], st[3][l], st[4][l]}
		dst[blk[l]] = finish(&h, data, int(off[l]), lo[l], hi[l])
		blk[l] = -1
	}
	for {
		busy, live := 0, 0
		for l := range blk {
			for blk[l] < 0 && next < len(startPos) {
				b, e := int(startPos[next]), len(data)
				if next+1 < len(startPos) {
					e = int(startPos[next+1])
				}
				if e-b < BlockSize {
					dst[next] = sum(data[b:e])
				} else {
					blk[l], lo[l], hi[l], off[l] = next, b, e, uint32(b)
					for j := range st {
						st[j][l] = init0[j]
					}
				}
				next++
			}
			if blk[l] >= 0 {
				busy, live = busy+1, l
			}
		}
		if busy == 0 || next == len(startPos) && busy < drainBelow {
			break
		}
		n := hi[live] - int(off[live])
		for l := range blk {
			if blk[l] < 0 {
				off[l] = off[live]
			} else {
				n = min(n, hi[l]-int(off[l]))
			}
		}
		lanes16(&st, data, &off, n/BlockSize)
		for l := range blk {
			if blk[l] >= 0 && hi[l]-int(off[l]) < BlockSize {
				done(l)
			}
		}
	}
	for l := range blk {
		if blk[l] >= 0 {
			done(l)
		}
	}
	return true
}
