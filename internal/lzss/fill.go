package lzss

import (
	"encoding/binary"
	"fmt"

	"streamgpu/internal/pool"
)

// Fill computes the batch's match arrays for the fast FindMatch kernel
// launched with warps of warp threads (the device spec's WarpSize), on up to
// DefaultLanes() concurrent matchers (RunLanes). Every entry of Len and Off
// is overwritten; the arrays grow only when the batch is larger than any
// before it. The kernel writes the arrays to the device as its result and
// charges each warp max over its lanes of 3·span + 4·Len[i], so Fill makes
// the arrays exact only where either is read with the real block starts:
//
//   - at every greedy token start of every block, Len and Off equal
//     FindMatchesPar's, so AppendEncode over the downloaded arrays emits
//     the archive's bytes;
//   - every warp-aligned run of warp positions has the same maximum cost as
//     under FindMatchesPar, and Fill records that maximum once per warp,
//     so a launch charges a warp without rescanning its lanes;
//   - every other entry is a valid, possibly shorter, match (or 0).
//
// A launch that reads a startPos slab other than the real starts — the
// all-zero slab behind a failed upload — is charged from the all-positions
// arrays instead, computed at most once per Fill on first need. So every
// launch over the result costs what the same launch over Precompute's does.
//
// The result depends only on the batch, its block starts and warp, never on
// the lane count. warp must be in 1..64. The batch must not change while a
// launch over the result runs. Launches over the result must cover whole
// warps (FastKernel panics otherwise); Precompute serves launches of any
// geometry.
func (m *Matches) Fill(batch []byte, startPos []int32, warp int) {
	m.fill(DefaultLanes(), batch, startPos, warp)
}

func (m *Matches) fill(lanes int, batch []byte, startPos []int32, warp int) {
	if warp < 1 || warp > 64 {
		panic(fmt.Sprintf("lzss: Fill for %d-lane warps, want 1..64", warp))
	}
	checkStarts(batch, startPos)
	n, nw := len(batch), (len(batch)+warp-1)/warp
	if cap(m.Len) < 4*n {
		m.Len, m.Off = make([]byte, 4*n), make([]byte, 4*n)
	}
	if cap(m.warps) < nw {
		m.warps = make([]warpCost, nw)
	}
	m.Len, m.Off, m.warps, m.warp = m.Len[:4*n], m.Off[:4*n], m.warps[:nw], warp
	m.batch, m.starts = batch, append(m.starts[:0], startPos...)
	m.exact, m.searches = nil, fillSearches{}
	f := fillPool.Get()
	*f = fillLanes{input: batch, startPos: startPos, matchLen: m.Len, matchOff: m.Off, warps: m.warps, warp: warp}
	mt := matcherPool.Get()
	RunLanes(lanes, mt, batch, startPos, f)
	matcherPool.Release(mt)
	for _, s := range f.searches {
		m.searches = m.searches.add(s)
	}
	*f = fillLanes{}
	fillPool.Release(f)
}

// fillSearches counts one Fill's chain searches, one per search: at greedy
// token starts, and deferred by settle to make a warp's maximum exact —
// Raised of those lifted their segment's maximum.
type fillSearches struct {
	Token, Settle, Raised int
}

func (s fillSearches) add(t fillSearches) fillSearches {
	return fillSearches{s.Token + t.Token, s.Settle + t.Settle, s.Raised + t.Raised}
}

// warpCost is Fill's record of one warp, written by the lane whose block
// holds the warp's first position.
type warpCost struct {
	blk  int32 // the index of that block
	cost int32 // max 3·span + 4·Len over the warp; -1 when a block boundary splits it
}

// fillLanes is Fill's lane body; pooled for the reason findLanes is.
type fillLanes struct {
	input              []byte
	startPos           []int32
	matchLen, matchOff []byte
	warps              []warpCost
	warp               int
	searches           [maxLanes]fillSearches // per lane
}

var fillPool = pool.New[*fillLanes]("lzss.fill-lanes", func() *fillLanes { return new(fillLanes) })

func (f *fillLanes) RunLane(m *Matcher, lane, k0, k1 int) {
	if len(f.input) > cap(m.prev) {
		m.prev = make([]int32, len(f.input))
	}
	s := &f.searches[lane]
	for k := k0; k < k1; k++ {
		*s = s.add(m.fillBlock(f, k, int(f.startPos[k]), blockEnd(f.startPos, k, len(f.input))))
	}
}

// putInt32 stores v as entry i of a little-endian int32 array. The
// three-index slice has a known non-zero capacity, which spares the store
// the compiler's empty-slice pointer masking: Fill stores every entry twice.
func putInt32(buf []byte, i int, v int32) {
	binary.LittleEndian.PutUint32(buf[4*i:4*i+4:4*i+4], uint32(v))
}

// fillBlock fills block k, [lo, hi). One greedy walk, as in AppendCompress:
// insert every position in order, and search the chain only where a token
// starts. A position inside a match (t, L, off) gets the lower bound
// L−(i−t) at the same offset — a valid match, because the source shifted by
// the same amount still lies inside the block and before i. Each time the
// walk completes the block's share of a warp, settle makes that segment's
// maximum cost exact, and the segment holding the warp's first position
// records it. fillBlock returns the block's searches.
func (m *Matcher) fillBlock(f *fillLanes, k, lo, hi int) (s fillSearches) {
	input, ml, mo := f.input, f.matchLen, f.matchOff
	prev := m.prev[:cap(m.prev)]
	epoch := m.nextEpoch()
	hashEnd := hi - MinMatch + 1
	// The next token start, and the offset of the match covering i.
	next, off := lo, int32(0)
	// The open segment [a, b): the block's share of the warp holding i.
	a, b := lo, min(hi, (lo/f.warp+1)*f.warp)
	var exact uint64 // bit i−a: position i holds its exact match
	run := 0         // the segment's maximum stored cost so far
	for i := lo; i < hi; i++ {
		l := int32(0)
		if i == next {
			best, bestC := 0, -1
			if i < hashEnd {
				h := hash3(input[i], input[i+1], input[i+2])
				if m.stamp[h] == epoch {
					s.Token++
					best, bestC = longest(input, prev, m.head[h], i, lo, hi)
				}
				m.insert(prev, h, i, epoch)
			}
			if best >= MinMatch {
				off, l = int32(i-bestC), int32(best)
				putInt32(ml, i, l)
				putInt32(mo, i, off)
				next = i + best
			} else {
				putInt32(ml, i, 0)
				putInt32(mo, i, 0)
				next = i + 1
			}
			exact |= 1 << uint(i-a)
		} else {
			if lb := next - i; lb >= MinMatch {
				l = int32(lb)
				putInt32(ml, i, l)
				putInt32(mo, i, off)
			} else {
				putInt32(ml, i, 0)
				putInt32(mo, i, 0)
			}
			if i < hashEnd {
				m.insert(prev, hash3(input[i], input[i+1], input[i+2]), i, epoch)
			}
		}
		run = max(run, 3*min(i-lo, WindowSize)+4*int(l))
		if i+1 == b {
			cost, searched, raised := settle(f, prev, lo, hi, a, b, exact, run)
			s.Settle += searched
			s.Raised += raised
			if a != lo || lo%f.warp == 0 {
				if b < min(a+f.warp, len(input)) {
					cost = -1 // the block ends inside the warp
				}
				f.warps[a/f.warp] = warpCost{blk: int32(k), cost: int32(cost)}
			}
			a, b, exact, run = b, min(hi, b+f.warp), 0, 0
		}
	}
	return s
}

// settle makes the maximum stored cost 3·(i−lo) + 4·Len[i] of segment
// [a, b) of block [lo, hi), run on entry, equal its maximum true cost, and
// returns it with the number of positions it searched and of those that
// raised the maximum. It walks the segment right to left, carrying an upper
// bound on each position's raw match length: a match (c, r) at i gives
// (c+1, r−1) at i+1, so r(i) ≤ r(i+1)+1, where an exact stored 0 stands for
// r ≤ 2 and nothing is known past the segment. A position whose bound could
// lift the running maximum is searched; any other position's true cost is
// at most a maximum the stored values already reach, so leaving its lower
// bound changes no warp's charge. The walk stops once even a MaxMatch at
// the current span could not lift the maximum.
func settle(f *fillLanes, prev []int32, lo, hi, a, b int, exact uint64, run int) (cost, searched, raised int) {
	input, ml, mo := f.input, f.matchLen, f.matchOff
	rNext := MaxMatch
	for i := b - 1; i >= a; i-- {
		if 3*min(i-lo, WindowSize)+4*MaxMatch <= run {
			break // no span left of i is longer, and no match beats MaxMatch
		}
		l := leInt32(ml, i)
		if exact&(1<<uint(i-a)) == 0 {
			ub := min(hi-i, MaxMatch, rNext+1)
			span := 3 * min(i-lo, WindowSize)
			if ub <= l || ub < MinMatch || span+4*ub <= run {
				rNext = ub
				continue
			}
			// The chain at the time i was inserted continues at prev[i].
			searched++
			best, bestC := longest(input, prev, prev[i], i, lo, hi)
			if best >= MinMatch {
				l = best
				putInt32(ml, i, int32(best))
				putInt32(mo, i, int32(i-bestC))
			} else {
				l = 0
				putInt32(ml, i, 0)
				putInt32(mo, i, 0)
			}
			if c := span + 4*l; c > run {
				run = c
				raised++
			}
		}
		// l is 0 or at least MinMatch here, and a stored 0 means r ≤ 2.
		rNext = max(l, MinMatch-1)
	}
	return run, searched, raised
}
