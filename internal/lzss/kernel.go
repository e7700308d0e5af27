package lzss

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

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
//	args[6] *Matches  (fast kernel only) Fill's host-computed result
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

// Matches carries Fill's host-computed result into the fast kernel: the
// match tokens and one record per warp. The zero value is ready for Fill;
// one Matches refilled per batch keeps its scratch.
type Matches struct {
	// searches counts the chain searches of the last Fill.
	searches fillSearches
	// The warp width, batch and block starts Fill filled for, one record
	// per warp, the match tokens in position order, and the all-positions
	// lengths a launch over a slab other than starts is charged from
	// (exactLen).
	warp    int
	batch   []byte
	starts  []int32
	warps   []warpCost
	matches []match
	mu      sync.Mutex
	exact   []int32
	// launches numbers the launches bound over the result; slab caches
	// whether the current one reads starts: its number << 2 | 1 if it
	// does, | 2 if not (realSlab).
	launches, slab atomic.Uint64
}

// putInt32 stores v as entry i of a little-endian int32 array. The
// three-index slice has a known non-zero capacity, which spares the store
// the compiler's empty-slice pointer masking.
func putInt32(buf []byte, i int, v int32) {
	binary.LittleEndian.PutUint32(buf[4*i:4*i+4:4*i+4], uint32(v))
}

// put writes entries [i0, i1) of the arrays a launch over Fill's result
// leaves: each match token's length and distance at its start, 0 elsewhere.
func (m *Matches) put(ml, mo []byte, i0, i1 int) {
	clear(ml[4*i0 : 4*i1])
	clear(mo[4*i0 : 4*i1])
	for _, t := range m.matches[m.warps[i0/m.warp].first:] {
		if int(t.pos) >= i1 {
			break
		}
		if int(t.pos) >= i0 {
			putInt32(ml, int(t.pos), int32(t.len))
			putInt32(mo, int(t.pos), int32(t.off))
		}
	}
}

// exactLen returns the all-positions match lengths — what the brute-force
// device scan finds, and FindMatchesPar — of the batch and starts Fill last
// filled, computing them on the first call after the Fill. Only a launch
// that reads a startPos slab other than the real starts, and the per-thread
// body, call it; the lanes of a launch may call it concurrently.
func (m *Matches) exactLen() []int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.exact == nil {
		m.exact = make([]int32, len(m.batch))
		FindMatchesPar(0, m.batch, m.starts, m.exact, make([]int32, len(m.batch)))
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

// realSlab reports whether launch number id reads Fill's block starts in
// its startPos slab sp (n entries). The slab is only readable once the
// launch executes, so the first warp compares it and the launch's other
// warps reuse the answer; a warp that finds another launch's answer
// compares again.
func (m *Matches) realSlab(id uint64, sp []byte, n int) bool {
	if v := m.slab.Load(); v>>2 == id {
		return v&3 == 1
	}
	same, v := n == len(m.starts), id<<2|1
	for k := 0; same && k < n; k++ {
		same = leInt32(sp, k) == int(m.starts[k])
	}
	if !same {
		v++
	}
	m.slab.Store(v)
	return same
}

// worst returns the largest 3·span + 4·Len a lane of [i0, i1) is charged,
// spans measured from the block starts the kernel reads in sp. Each warp
// whose blocks are the real ones — every warp, when the slab is Fill's
// starts (real) — is charged its record; a run with any other warp is
// charged from the all-positions lengths.
func (m *Matches) worst(sp []byte, n, size, i0, i1 int, real bool) int64 {
	var cost int32
	if real {
		for j := i0; j < i1; j += m.warp {
			cost = max(cost, m.warps[j/m.warp].cost)
		}
		return int64(cost)
	}
	k := blockOf(sp, n, i0)
	for j, kj := i0, k; j < i1; j += m.warp {
		if j > i0 {
			kj = blockOf(sp, n, j)
		}
		w := m.warps[j/m.warp]
		if !m.sameBlocks(sp, n, size, kj, int(w.blk), j, min(j+m.warp, i1)) {
			return scan(sp, n, k, i0, i1, m.exactLen())
		}
		cost = max(cost, w.cost)
	}
	return int64(cost)
}

// scan returns the largest 3·span + 4·lens[i] over [i0, i1), spans measured
// from the block starts in sp (n entries), k the block of i0: one block
// lookup for the run, then block by block, because a run usually sits inside
// one block and inside a block the span only depends on the distance from
// its start.
func scan(sp []byte, n, k, i0, i1 int, lens []int32) int64 {
	var worst int64
	for i := i0; i < i1; k++ {
		lo, end := leInt32(sp, k), i1
		if k+1 < n {
			end = min(end, leInt32(sp, k+1))
		}
		for ; i < end; i++ {
			worst = max(worst, 3*int64(min(i-lo, WindowSize))+4*int64(lens[i]))
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
// the served GPU path: functionally it writes Fill's matches into the device
// buffers, while its cost model charges the window scan the brute-force
// kernel performs — so virtual timing matches BruteKernel without paying its
// host-side execution cost at megabyte scale. It writes BruteKernel's bytes
// at every greedy token start and 0 elsewhere, charges every warp what
// BruteKernel's lengths charge it, and panics on a run of threads that is
// not whole warps of the filled width. The equivalence of results and the
// cost band are covered by tests.
//
// Body defines it per thread, charging a lane its all-positions length.
// Launches run Warp, which does the same work a warp at a time — arguments
// decoded once per launch, the arrays written a run at a time, and the
// charge read from Fill's per-warp record where the slab allows
// (Matches.worst) — because a 1 MB batch is a million threads and this loop
// is the served path's wall cost; internal/gpu's executor-equivalence test
// holds the two equal. The startPos slab is read per warp, when the launch
// executes: Bind runs the Warp factory at enqueue, before the upload ahead
// of the launch has written the slab.
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
			pre.put(mlBuf, moBuf, i, i+1)
			// Cost: block lookup + window-span scan + extension estimate.
			// The charged cost is the paper's linear startPos walk; the
			// host-side lookup itself binary-searches for speed.
			lo := leInt32(spBuf, blockOf(spBuf, startPosSize, i))
			span := int64(min(i-lo, WindowSize))
			return 2*int64(startPosSize) + 3*span + 4*int64(pre.exactLen()[i]) + 10
		},
		Warp: func(args []any) gpu.WarpFunc {
			sizeInput := args[1].(int)
			spBuf := args[2].(*gpu.Buf).Bytes()
			startPosSize := args[3].(int)
			mlBuf := args[4].(*gpu.Buf).Bytes()
			moBuf := args[5].(*gpu.Buf).Bytes()
			pre := args[6].(*Matches)
			id := pre.launches.Add(1)
			return func(w *gpu.Warp) int64 {
				i0 := w.Block.X*w.BlockDim.X + w.Idx.X // w.GlobalX(), without copying w.Thread
				i1 := min(i0+w.N, sizeInput)
				if i0 >= i1 {
					return gpu.ExitCost
				}
				if i0%pre.warp != 0 || (w.N%pre.warp != 0 && i0+w.N < sizeInput) {
					panic(fmt.Sprintf("lzss: FastKernel warp [%d, %d) is not whole %d-lane warps, the width its matches were filled for", i0, i0+w.N, pre.warp))
				}
				pre.put(mlBuf, moBuf, i0, i1)
				real := pre.realSlab(id, spBuf, startPosSize)
				// Threads past sizeInput cost ExitCost, below any in-range
				// thread's fixed part.
				return 2*int64(startPosSize) + pre.worst(spBuf, startPosSize, sizeInput, i0, i1, real) + 10
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
