package lzss

import (
	"encoding/binary"
	"fmt"
	"sync"

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

// Matches carries host-computed match arrays into the fast kernel, in the
// layout the kernel leaves on the device: entry i of Len and Off is a
// little-endian int32 at bytes [4i, 4i+4), so a launch copies them a warp at
// a time. The zero value is ready for Fill; one Matches refilled per batch
// keeps its arrays.
type Matches struct {
	Len []byte
	Off []byte
	// searches counts the chain searches of the last Fill.
	searches fillSearches
	// warp is the warp width Fill made the arrays exact for; 0 (Precompute)
	// means exact at every position. The rest is Fill's too: the batch and
	// block starts it filled, one record per warp, and the all-positions Len
	// a launch over a slab other than starts is charged from (exactLen).
	warp   int
	batch  []byte
	starts []int32
	warps  []warpCost
	mu     sync.Mutex
	exact  []byte
}

// Precompute returns the all-positions matches of the batch — what the
// brute-force device scan would produce, and FindMatchesPar does — for
// launches of any geometry.
func Precompute(batch []byte, startPos []int32) *Matches {
	ml, mo := make([]int32, len(batch)), make([]int32, len(batch))
	FindMatchesPar(0, batch, startPos, ml, mo)
	m := &Matches{Len: make([]byte, 4*len(batch)), Off: make([]byte, 4*len(batch))}
	for i := range ml {
		putInt32(m.Len, i, ml[i])
		putInt32(m.Off, i, mo[i])
	}
	return m
}

// exactLen returns Precompute's Len for the batch and starts Fill last
// filled, computing it on the first call after the Fill. Only a launch that
// reads a startPos slab other than the real starts calls it; the lanes of a
// launch may call it concurrently.
func (m *Matches) exactLen() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.exact == nil {
		m.exact = Precompute(m.batch, m.starts).Len
	}
	return m.exact
}

// sameBlocks reports whether the startPos slab sp (n entries, over a batch
// of size bytes) puts every position of [i0, i1) in the block Fill's starts
// put it in. k is the slab's block of i0 (blockOf), rk the real one.
func (m *Matches) sameBlocks(sp []byte, n, size, k, rk, i0, i1 int) bool {
	for i := i0; i < i1; k, rk = k+1, rk+1 {
		if k >= n || rk >= len(m.starts) || leInt32(sp, k) != int(m.starts[rk]) {
			return false
		}
		end := size
		if k+1 < n {
			end = leInt32(sp, k+1)
		}
		if min(end, i1) != min(blockEnd(m.starts, rk, size), i1) {
			return false
		}
		i = min(end, i1)
	}
	return true
}

// worst returns the largest 3·span + 4·Len a lane of [i0, i1) is charged,
// spans measured from the block starts the kernel reads in sp. Over Fill's
// arrays a warp whose blocks are the real ones is charged its recorded
// maximum, or rescanned when a block boundary splits it; any other warp is
// charged from the all-positions arrays, as over Precompute's.
func (m *Matches) worst(sp []byte, n, size, i0, i1 int) int64 {
	k := blockOf(sp, n, i0)
	lens := m.Len
	if m.warp > 0 {
		w := m.warps[i0/m.warp]
		if !m.sameBlocks(sp, n, size, k, int(w.blk), i0, i1) {
			lens = m.exactLen()
		} else if w.cost >= 0 && i1-i0 <= m.warp {
			return int64(w.cost)
		}
	}
	return scan(sp, n, k, i0, i1, lens)
}

// scan returns the largest 3·span + 4·lens[i] over [i0, i1), spans measured
// from the block starts in sp (n entries), k the block of i0: one block
// lookup for the run, then block by block, because a run usually sits inside
// one block and inside a block the span only depends on the distance from
// its start.
func scan(sp []byte, n, k, i0, i1 int, lens []byte) int64 {
	var worst int64
	for i := i0; i < i1; k++ {
		lo, end := leInt32(sp, k), i1
		if k+1 < n {
			end = min(end, leInt32(sp, k+1))
		}
		for ; i < end; i++ {
			worst = max(worst, 3*int64(min(i-lo, WindowSize))+4*int64(leInt32(lens, i)))
		}
	}
	return worst
}

// leInt32 reads entry i of a little-endian int32 device array (sliced as
// putInt32 stores).
func leInt32(buf []byte, i int) int {
	return int(int32(binary.LittleEndian.Uint32(buf[4*i : 4*i+4 : 4*i+4])))
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
// warp at a time — arguments decoded once per launch, the arrays copied a
// run at a time, and the charge read from Fill's per-warp record where the
// slab allows (Matches.worst) — because a 1 MB batch is a million threads
// and this loop is the served path's wall cost; internal/gpu's
// executor-equivalence test holds the two equal. The startPos slab is read
// per warp, when the launch executes: Bind runs the Warp factory at enqueue,
// before the upload ahead of the launch has written the slab.
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
			copy(mlBuf[i*4:i*4+4], pre.Len[i*4:])
			copy(moBuf[i*4:i*4+4], pre.Off[i*4:])

			// Cost: block lookup + window-span scan + extension estimate.
			// The charged cost is the paper's linear startPos walk; the
			// host-side lookup itself binary-searches for speed. Fill's
			// arrays price a lane only inside a warp whose blocks are the
			// real ones, so a lane of any other warp reads the
			// all-positions length.
			lens := pre.Len
			if w := pre.warp; w > 0 {
				j0 := i - i%w
				j1 := min(j0+w, sizeInput)
				if !pre.sameBlocks(spBuf, startPosSize, sizeInput, blockOf(spBuf, startPosSize, j0), int(pre.warps[j0/w].blk), j0, j1) {
					lens = pre.exactLen()
				}
			}
			lo := leInt32(spBuf, blockOf(spBuf, startPosSize, i))
			span := int64(min(i-lo, WindowSize))
			return 2*int64(startPosSize) + 3*span + 4*int64(leInt32(lens, i)) + 10
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
				copy(mlBuf[i0*4:i1*4], pre.Len[i0*4:i1*4])
				copy(moBuf[i0*4:i1*4], pre.Off[i0*4:i1*4])
				// Threads past sizeInput cost ExitCost, below any in-range
				// thread's fixed part.
				return 2*int64(startPosSize) + pre.worst(spBuf, startPosSize, sizeInput, i0, i1) + 10
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
