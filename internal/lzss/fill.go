package lzss

import (
	"fmt"

	"streamgpu/internal/pool"
)

// Fill computes the batch's match arrays for the fast FindMatch kernel
// launched with warps of warp threads (the device spec's WarpSize), on up to
// DefaultLanes() concurrent matchers (RunLanes). Every entry of Len and Off
// is overwritten; the arrays grow only when the batch is larger than any
// before it. The kernel writes the arrays to the device as its result and
// charges each warp max over its lanes of 3·span + 4·Len[i], so Fill makes
// the arrays exact only where either is read:
//
//   - at every greedy token start of every block, Len and Off equal
//     FindMatchesPar's, so AppendEncode over the downloaded arrays emits
//     the archive's bytes;
//   - every warp-aligned run of warp positions has the same maximum cost as
//     under FindMatchesPar, both with the real block starts and with the
//     all-zero startPos a kernel sees behind a failed block-start upload
//     (span measured from 0, not from the block start);
//   - every other entry is a valid, possibly shorter, match (or 0).
//
// The result depends only on the batch, its block starts and warp, never on
// the lane count. warp must be in 1..64. Launches over the result must cover
// whole warps (FastKernel panics otherwise); Precompute serves launches of
// any geometry.
func (m *Matches) Fill(batch []byte, startPos []int32, warp int) {
	m.fill(DefaultLanes(), batch, startPos, warp)
}

func (m *Matches) fill(lanes int, batch []byte, startPos []int32, warp int) {
	if warp < 1 || warp > 64 {
		panic(fmt.Sprintf("lzss: Fill for %d-lane warps, want 1..64", warp))
	}
	if cap(m.Len) < len(batch) {
		m.Len = make([]int32, len(batch))
		m.Off = make([]int32, len(batch))
	}
	m.Len, m.Off, m.warp = m.Len[:len(batch)], m.Off[:len(batch)], warp
	checkMatchArgs(batch, startPos, m.Len, m.Off)
	f := fillPool.Get()
	*f = fillLanes{input: batch, startPos: startPos, matchLen: m.Len, matchOff: m.Off, warp: warp}
	mt := matcherPool.Get()
	RunLanes(lanes, mt, batch, startPos, f)
	matcherPool.Release(mt)
	*f = fillLanes{}
	fillPool.Release(f)
}

// fillLanes is Fill's lane body; pooled for the reason findLanes is.
type fillLanes struct {
	input              []byte
	startPos           []int32
	matchLen, matchOff []int32
	warp               int
}

var fillPool = pool.New[*fillLanes]("lzss.fill-lanes", func() *fillLanes { return new(fillLanes) })

func (f *fillLanes) RunLane(m *Matcher, _, k0, k1 int) {
	if len(f.input) > cap(m.prev) {
		m.prev = make([]int32, len(f.input))
	}
	for k := k0; k < k1; k++ {
		m.fillBlock(f, int(f.startPos[k]), blockEnd(f.startPos, k, len(f.input)))
	}
}

// fillBlock fills block [lo, hi). One greedy walk, as in AppendCompress:
// insert every position in order, and search the chain only where a token
// starts. A position inside a match (t, L, off) gets the lower bound
// L−(i−t) at the same offset — a valid match, because the source shifted by
// the same amount still lies inside the block and before i. Each time the
// walk completes the block's share of a warp, settle makes that segment's
// maximum cost exact.
func (m *Matcher) fillBlock(f *fillLanes, lo, hi int) {
	input, ml, mo := f.input, f.matchLen, f.matchOff
	prev := m.prev[:cap(m.prev)]
	epoch := m.nextEpoch()
	hashEnd := hi - MinMatch + 1
	// The next token start, and the offset of the match covering i.
	next, off := lo, int32(0)
	// The open segment [a, b): the block's share of the warp holding i.
	a, b := lo, min(hi, (lo/f.warp+1)*f.warp)
	var exact uint64 // bit i−a: position i holds its exact match
	for i := lo; i < hi; i++ {
		if i == next {
			best, bestC := 0, -1
			if i < hashEnd {
				h := hash3(input[i], input[i+1], input[i+2])
				if m.stamp[h] == epoch {
					best, bestC = longest(input, prev, m.head[h], i, lo, hi)
				}
				m.insert(prev, h, i, epoch)
			}
			if best >= MinMatch {
				off = int32(i - bestC)
				ml[i], mo[i] = int32(best), off
				next = i + best
			} else {
				ml[i], mo[i] = 0, 0
				next = i + 1
			}
			exact |= 1 << uint(i-a)
		} else {
			if lb := next - i; lb >= MinMatch {
				ml[i], mo[i] = int32(lb), off
			} else {
				ml[i], mo[i] = 0, 0
			}
			if i < hashEnd {
				m.insert(prev, hash3(input[i], input[i+1], input[i+2]), i, epoch)
			}
		}
		if i+1 == b {
			settle(f, prev, lo, hi, a, b, exact)
			a, b, exact = b, min(hi, b+f.warp), 0
		}
	}
}

// settle makes the maximum stored cost of segment [a, b) of block [lo, hi)
// equal its maximum true cost, under both startPos states: span i−lo with
// the real block starts, span i with the all-zero ones. It walks the segment
// right to left, carrying an upper bound on each position's raw match
// length: a match (c, r) at i gives (c+1, r−1) at i+1, so
// r(i) ≤ r(i+1)+1, where an exact stored 0 stands for r ≤ 2 and nothing is
// known past the segment. A position whose bound could lift either running
// maximum is searched; any other position's true cost is at most a maximum
// the stored values already reach, so leaving its lower bound changes no
// warp's charge.
func settle(f *fillLanes, prev []int32, lo, hi, a, b int, exact uint64) {
	input, ml, mo := f.input, f.matchLen, f.matchOff
	var runReal, runZero int
	for i := a; i < b; i++ {
		l := 4 * int(ml[i])
		runReal = max(runReal, 3*min(i-lo, WindowSize)+l)
		runZero = max(runZero, 3*min(i, WindowSize)+l)
	}
	rNext := MaxMatch
	for i := b - 1; i >= a; i-- {
		l := int(ml[i])
		if exact&(1<<uint(i-a)) == 0 {
			ub := min(hi-i, MaxMatch, rNext+1)
			spanReal, spanZero := 3*min(i-lo, WindowSize), 3*min(i, WindowSize)
			if ub <= l || ub < MinMatch || (spanReal+4*ub <= runReal && spanZero+4*ub <= runZero) {
				rNext = ub
				continue
			}
			// The chain at the time i was inserted continues at prev[i].
			best, bestC := longest(input, prev, prev[i], i, lo, hi)
			if best >= MinMatch {
				l = best
				ml[i], mo[i] = int32(best), int32(i-bestC)
			} else {
				l = 0
				ml[i], mo[i] = 0, 0
			}
			runReal = max(runReal, spanReal+4*l)
			runZero = max(runZero, spanZero+4*l)
		}
		// l is 0 or at least MinMatch here, and a stored 0 means r ≤ 2.
		rNext = max(l, MinMatch-1)
	}
}
