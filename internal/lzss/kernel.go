package lzss

import (
	"encoding/binary"
	"fmt"

	"streamgpu/internal/gpu"
)

// Kernel argument layout shared by both kernel variants (mirroring
// Listing 3's parameter list):
//
//	args[0] *gpu.Buf  input       — the batch bytes
//	args[1] int       sizeInput
//	args[2] *gpu.Buf  startPoss   — int32 LE block start offsets
//	args[3] int       startPosSize
//	args[4] *gpu.Buf  matchesLength — int32 LE out
//	args[5] *gpu.Buf  matchesOffset — int32 LE out
//	args[6] *Matches  (fast kernel only) host-precomputed results
//
// Cost accounting: the paper's kernel walks the startPos array linearly to
// locate its block, then scans up to WindowSize candidates. We charge
// 2 cycles per startPos entry, ~3 cycles per candidate position in the
// window span, and ~4 cycles per matched byte.

// BruteKernel returns the faithful Listing 3 device function: every thread
// performs the full backward window scan itself. Results are bit-identical
// to FindMatchesRef. Use it in tests and small examples; its host-side
// execution cost is the real O(window) scan per byte.
func BruteKernel() *gpu.KernelSpec {
	return &gpu.KernelSpec{
		Name:          "lzss_find_match_brute",
		RegsPerThread: 28,
		Body: func(t gpu.Thread, args []any) int64 {
			input := args[0].(*gpu.Buf).Bytes()
			sizeInput := args[1].(int)
			spBuf := args[2].(*gpu.Buf).Bytes()
			startPosSize := args[3].(int)
			mlBuf := args[4].(*gpu.Buf).Bytes()
			moBuf := args[5].(*gpu.Buf).Bytes()

			i := t.GlobalX()
			if i >= sizeInput {
				return gpu.ExitCost
			}
			cycles := int64(2 * startPosSize) // linear block lookup, as in the paper
			// Locate the block containing i.
			lo, hi := 0, sizeInput
			for k := 0; k < startPosSize; k++ {
				s := int(int32(binary.LittleEndian.Uint32(spBuf[k*4:])))
				if s <= i {
					lo = s
					if k+1 < startPosSize {
						hi = int(int32(binary.LittleEndian.Uint32(spBuf[(k+1)*4:])))
					} else {
						hi = sizeInput
					}
				}
			}
			best, bestC := 0, -1
			maxHere := hi - i
			if maxHere > MaxMatch {
				maxHere = MaxMatch
			}
			winLo := i - WindowSize
			if winLo < lo {
				winLo = lo
			}
			for c := i - 1; c >= winLo; c-- {
				cycles += 3
				limit := maxHere
				if d := i - c; limit > d {
					limit = d
				}
				l := 0
				for l < limit && input[c+l] == input[i+l] {
					l++
					cycles += 4
				}
				if l > best {
					best, bestC = l, c
					if best == maxHere {
						break
					}
				}
			}
			var ml, mo int32
			if best >= MinMatch {
				ml, mo = int32(best), int32(i-bestC)
			}
			binary.LittleEndian.PutUint32(mlBuf[i*4:], uint32(ml))
			binary.LittleEndian.PutUint32(moBuf[i*4:], uint32(mo))
			return cycles + 10
		},
	}
}

// Matches carries host-computed match arrays into the fast kernel. The zero
// value is ready for Fill; one Matches refilled per batch keeps its arrays.
type Matches struct {
	Len []int32
	Off []int32
	// warp is the warp width Fill made the arrays exact for; 0 (Precompute)
	// means exact at every position.
	warp int
}

// Precompute returns the all-positions matches of the batch — what the
// brute-force device scan would produce, and FindMatchesPar does — for
// launches of any geometry.
func Precompute(batch []byte, startPos []int32) *Matches {
	m := &Matches{Len: make([]int32, len(batch)), Off: make([]int32, len(batch))}
	FindMatchesPar(0, batch, startPos, m.Len, m.Off)
	return m
}

// leInt32 reads entry i of a little-endian int32 device array.
func leInt32(buf []byte, i int) int {
	return int(int32(binary.LittleEndian.Uint32(buf[i*4:])))
}

// FastKernel returns the device function used by the experiment harness and
// the served GPU path: functionally it writes the host-computed match arrays
// into the device buffers, while its cost model charges the window scan the
// brute-force kernel performs — so virtual timing matches BruteKernel without
// paying its host-side execution cost at megabyte scale. Over Precompute's
// arrays every byte it writes is BruteKernel's; over Fill's, the bytes at
// token starts and every warp's charge are, and a run of threads that is not
// whole warps of the filled width panics. The equivalence of results and the
// cost band are covered by tests.
//
// Body defines it per thread. Launches run Warp, which does the same work a
// warp at a time — arguments decoded once per launch, the block found once
// per warp and advanced as the positions cross block boundaries — because a
// 1 MB batch is a million threads and this loop is the served path's wall
// cost; internal/gpu's executor-equivalence test holds the two equal.
func FastKernel() *gpu.KernelSpec {
	return &gpu.KernelSpec{
		Name:          "lzss_find_match",
		RegsPerThread: 28,
		Body: func(t gpu.Thread, args []any) int64 {
			sizeInput := args[1].(int)
			spBuf := args[2].(*gpu.Buf).Bytes()
			startPosSize := args[3].(int)
			mlBuf := args[4].(*gpu.Buf).Bytes()
			moBuf := args[5].(*gpu.Buf).Bytes()
			pre := args[6].(*Matches)

			i := t.GlobalX()
			if i >= sizeInput {
				return gpu.ExitCost
			}
			binary.LittleEndian.PutUint32(mlBuf[i*4:], uint32(pre.Len[i]))
			binary.LittleEndian.PutUint32(moBuf[i*4:], uint32(pre.Off[i]))

			// Cost: block lookup + window-span scan + extension estimate.
			// The charged cost is the paper's linear startPos walk; the
			// host-side lookup itself binary-searches for speed.
			lo := leInt32(spBuf, blockOf(spBuf, startPosSize, i))
			span := int64(min(i-lo, WindowSize))
			return 2*int64(startPosSize) + 3*span + 4*int64(pre.Len[i]) + 10
		},
		Warp: func(args []any) gpu.WarpFunc {
			sizeInput := args[1].(int)
			spBuf := args[2].(*gpu.Buf).Bytes()
			startPosSize := args[3].(int)
			mlBuf := args[4].(*gpu.Buf).Bytes()
			moBuf := args[5].(*gpu.Buf).Bytes()
			pre := args[6].(*Matches)
			return func(w gpu.Warp) int64 {
				i0 := w.GlobalX()
				i1 := min(i0+w.N, sizeInput)
				if i0 >= i1 {
					return gpu.ExitCost
				}
				if pre.warp > 0 && (i0%pre.warp != 0 || (w.N%pre.warp != 0 && i0+w.N < sizeInput)) {
					panic(fmt.Sprintf("lzss: FastKernel warp [%d, %d) is not whole %d-lane warps, the width its matches were filled for", i0, i0+w.N, pre.warp))
				}
				lens, offs := pre.Len[i0:i1], pre.Off[i0:i1]
				ml, mo := mlBuf[i0*4:i1*4], moBuf[i0*4:i1*4]
				var worst int64
				// One block lookup for the run, then block by block: a run
				// usually sits inside one block, and inside a block the
				// window span only depends on the distance from its start.
				for k, i := blockOf(spBuf, startPosSize, i0), i0; i < i1; k++ {
					lo, end := leInt32(spBuf, k), i1
					if k+1 < startPosSize {
						end = min(end, leInt32(spBuf, k+1))
					}
					for ; i < end; i++ {
						j := i - i0
						l := lens[j]
						binary.LittleEndian.PutUint32(ml[j*4:], uint32(l))
						binary.LittleEndian.PutUint32(mo[j*4:], uint32(offs[j]))
						if c := 3*int64(min(i-lo, WindowSize)) + 4*int64(l); c > worst {
							worst = c
						}
					}
				}
				// Threads past sizeInput cost ExitCost, below any in-range
				// thread's fixed part.
				return 2*int64(startPosSize) + worst + 10
			}
		},
	}
}

// blockOf returns the index of the block containing position i: the last
// startPos entry <= i.
func blockOf(spBuf []byte, startPosSize, i int) int {
	klo, khi := 0, startPosSize-1
	for klo < khi {
		mid := (klo + khi + 1) / 2
		if leInt32(spBuf, mid) <= i {
			klo = mid
		} else {
			khi = mid - 1
		}
	}
	return klo
}
