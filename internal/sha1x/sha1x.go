// Package sha1x is the SHA-1 of Dedup's stage 2, in two shapes:
//
//   - SumBatch, which hashes every content-defined block of a batch in one
//     call — the CPU paths of Dedup — and Sum20 for a single buffer, and
//   - a flat, batch-oriented kernel (Kernel) where one GPU thread hashes one
//     block of a batch — the paper's Dedup stage 2 ("each GPU thread
//     calculates the SHA-1 of one block").
//
// Digests come from sum: on amd64 CPUs that report the SHA extensions, a
// SHA1RNDS4 compression loop (sha1x_amd64.s), chosen once by CPUID;
// elsewhere crypto/sha1. PARSEC's dedup likewise links a library SHA-1.
// Where the CPU also reports AVX-512F and AVX-512BW, SumBatch takes the
// kernel's shape on the host's vector unit instead: 16 blocks in lockstep, one
// per 32-bit lane of a 16-lane compression loop (lanes16), each lane
// refilled from the batch as its block runs out and its padded tail hashed
// on SHA-NI. The package also owns the batch layout (startPos, PutStartPos)
// and the kernel's device cost model, which the host's speed does not
// change.
// SHA-1 is used for content fingerprinting (duplicate detection), not
// security, exactly as in PARSEC's dedup.
package sha1x

import (
	"encoding/binary"

	"streamgpu/internal/gpu"
)

// Size is the SHA-1 digest length in bytes.
const Size = 20

// BlockSize is the SHA-1 block length in bytes.
const BlockSize = 64

// Sum20 computes the SHA-1 of data in one call.
func Sum20(data []byte) [Size]byte { return sum(data) }

// SumBatch hashes every content-defined block of a batch into dst: block i
// spans [startPos[i], startPos[i+1]) (the last block ends at len(data)) and
// its digest lands in dst[i]. dst must have at least len(startPos) entries.
// This is the CPU mirror of Kernel's thread-per-block layout and performs
// zero heap allocations, so the dedup hash stage can recycle dst across
// batches.
func SumBatch(data []byte, startPos []int32, dst [][Size]byte) {
	if sumLanes(data, startPos, dst) {
		return
	}
	for i, lo := range startPos {
		hi := len(data)
		if i+1 < len(startPos) {
			hi = int(startPos[i+1])
		}
		dst[i] = sum(data[lo:hi])
	}
}

// roundCycles approximates the device cost of one 64-byte compression:
// 80 rounds of ~3 dependent integer ops.
const roundCycles = 240

// Kernel is the batched SHA-1 device function: thread i hashes block i of
// the batch, where block i spans [startPos[i], startPos[i+1]) (the last
// block ends at batchLen). Digests land in out at i*20.
//
// Launch args: input *gpu.Buf, startPos *gpu.Buf (int32 LE), nBlocks int,
// batchLen int, out *gpu.Buf.
var Kernel = &gpu.KernelSpec{
	Name:          "sha1_blocks",
	RegsPerThread: 48,
	Body: func(t gpu.Thread, args []any) int64 {
		input := args[0].(*gpu.Buf)
		startPos := args[1].(*gpu.Buf)
		nBlocks := args[2].(int)
		batchLen := args[3].(int)
		out := args[4].(*gpu.Buf)
		i := t.GlobalX()
		if i >= nBlocks {
			return gpu.ExitCost
		}
		sp := startPos.Bytes()
		lo := int(int32(binary.LittleEndian.Uint32(sp[i*4:])))
		hi := batchLen
		if i+1 < nBlocks {
			hi = int(int32(binary.LittleEndian.Uint32(sp[(i+1)*4:])))
		}
		sum := Sum20(input.Bytes()[lo:hi])
		copy(out.Bytes()[i*Size:], sum[:])
		blocks := (hi - lo + 9 + BlockSize - 1) / BlockSize
		return int64(blocks)*roundCycles + 40
	},
}

// PutStartPos serializes block start offsets into the little-endian int32
// layout the kernel expects.
func PutStartPos(dst []byte, startPos []int32) {
	for i, v := range startPos {
		binary.LittleEndian.PutUint32(dst[i*4:], uint32(v))
	}
}
