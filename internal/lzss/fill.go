package lzss

import (
	"encoding/binary"
	"fmt"
	"slices"

	"streamgpu/internal/pool"
)

// Fill computes the fast FindMatch kernel's result for the batch, for
// launches with warps of warp threads (the device spec's WarpSize), on up to
// lanes concurrent matchers (RunLanes; lanes <= 0 selects DefaultLanes()).
// It walks each block once, greedily, as AppendCompress does, and keeps only
// what some reader reads:
//
//   - the archive: each block out keeps is encoded from the walk into the
//     arena out hands its lane, byte-equal to AppendCompress's encoding (a
//     nil out keeps none);
//   - the match tokens: a launch over the result leaves, at every greedy
//     token start, FindMatchesPar's (and BruteKernel's) Len and Off, and 0
//     at every other position — a valid match or 0 everywhere;
//   - one record per warp-aligned run of warp positions: the maximum
//     3·span + 4·Len over the run under FindMatchesPar with the real block
//     starts, warps a block boundary splits included, so a launch charges
//     a warp without reading a per-position length.
//
// A launch that reads a startPos slab other than the real starts — the
// all-zero slab behind a failed upload — is charged from the all-positions
// lengths instead, computed at most once per Fill on first need. So every
// launch over the result costs what its threads' all-positions lengths
// charge them.
//
// The result depends only on the batch, its block starts and warp, never on
// the lane count. warp must be in 1..64. The batch must not change while a
// launch over the result runs. Launches over the result must cover whole
// warps (FastKernel panics otherwise); a fill for 1-lane warps serves
// launches of any geometry.
func (m *Matches) Fill(lanes int, batch []byte, startPos []int32, warp int, out BlockSink) {
	mt := matcherPool.Get()
	m.fill(mt, lanes, batch, startPos, warp, out)
	matcherPool.Release(mt)
}

// fill is Fill with lane 0 on mt.
func (m *Matches) fill(mt *Matcher, lanes int, batch []byte, startPos []int32, warp int, out BlockSink) {
	if warp < 1 || warp > 64 {
		panic(fmt.Sprintf("lzss: Fill for %d-lane warps, want 1..64", warp))
	}
	checkStarts(batch, startPos)
	if lanes <= 0 {
		lanes = DefaultLanes()
	}
	nw := (len(batch) + warp - 1) / warp
	if cap(m.warps) < nw {
		m.warps = make([]warpCost, nw)
	}
	m.warps, m.warp = m.warps[:nw], warp
	m.batch, m.starts = batch, append(m.starts[:0], startPos...)
	m.exact, m.searches, m.matches = nil, fillSearches{}, m.matches[:0]
	f := fillPool.Get()
	f.input, f.startPos, f.warps, f.warp, f.out = batch, startPos, m.warps, warp, out
	for i := range f.lanes {
		l := &f.lanes[i]
		l.matches, l.searches, l.head, l.headCost = l.matches[:0], fillSearches{}, -1, 0
	}
	RunLanes(lanes, mt, batch, startPos, f)
	// Lanes run in block order, so their match lists concatenate in position
	// order; a lane's head warp began in an earlier lane, which recorded it.
	for i := range f.lanes {
		l := &f.lanes[i]
		m.matches = append(m.matches, l.matches...)
		m.searches = m.searches.add(l.searches)
		if l.head >= 0 {
			m.warps[l.head].cost = max(m.warps[l.head].cost, int32(l.headCost))
		}
		l.m = nil
	}
	j := 0
	for w := range m.warps {
		m.warps[w].first = int32(j)
		for j < len(m.matches) && int(m.matches[j].pos) < (w+1)*warp {
			j++
		}
	}
	f.input, f.startPos, f.warps, f.out = nil, nil, nil, nil
	fillPool.Release(f)
}

// A BlockSink lays out the block encodings Fill emits, as a lane-parallel
// compressor lays out its own. Fill calls EncodeLane once per lane of
// RunLanes, concurrently, with the lane's contiguous blocks [k0, k1).
// EncodeLane must call enc once for each of those blocks, in order, with the
// arena to append block k's encoding to and whether to keep it, and carry on
// with the arena enc returns; a block not kept appends nothing.
type BlockSink interface {
	EncodeLane(lane, k0, k1 int, enc func(dst []byte, k int, keep bool) []byte)
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

// warpCost is Fill's record of one warp.
type warpCost struct {
	blk   int32 // the block holding the warp's first position
	cost  int32 // max 3·span + 4·Len over the warp, under FindMatchesPar
	first int32 // the index in Matches.matches of the warp's first match token
}

// match is one greedy match token: its start, length and backward distance.
type match struct {
	pos      int32
	len, off uint16
}

// fillLanes is Fill's lane body; pooled for the reason findLanes is.
type fillLanes struct {
	input    []byte
	startPos []int32
	warps    []warpCost
	warp     int
	out      BlockSink
	lanes    [maxLanes]fillLane
}

// fillLane is one lane's walk state. enc is its fillBlock, bound once when
// the pooled fillLanes is built, so handing it to a BlockSink per lane does
// not allocate.
type fillLane struct {
	f        *fillLanes
	m        *Matcher
	enc      func(dst []byte, k int, keep bool) []byte
	matches  []match // the lane's match tokens, in position order
	searches fillSearches
	// head is the warp holding the lane's first position when a block of an
	// earlier lane starts that warp (else -1); headCost is this lane's share
	// of its maximum, merged into the record after the join.
	head, headCost int
}

var fillPool = pool.New[*fillLanes]("lzss.fill-lanes", func() *fillLanes {
	f := new(fillLanes)
	for i := range f.lanes {
		l := &f.lanes[i]
		l.f, l.enc = f, l.fillBlock
	}
	return f
})

func (f *fillLanes) RunLane(m *Matcher, lane, k0, k1 int) {
	if k0 >= k1 {
		return
	}
	l := &f.lanes[lane]
	l.m = m
	if p := int(f.startPos[k0]); p%f.warp != 0 {
		l.head = p / f.warp
	}
	if f.out == nil {
		for k := k0; k < k1; k++ {
			l.fillBlock(nil, k, false)
		}
		return
	}
	f.out.EncodeLane(lane, k0, k1, l.enc)
}

// fillBlock walks block k, [lo, hi), as AppendCompress does: link the
// block, search the chain only where a token starts, and append each token to
// dst when keep. It records every match token, and settles each segment —
// the block's share of one warp — once the walk has searched the token start
// at or past the segment's end: that search bounds the segment's right edge
// (settle). It returns dst.
func (l *fillLane) fillBlock(dst []byte, k int, keep bool) []byte {
	f := l.f
	input, warp := f.input, f.warp
	lo, hi := int(f.startPos[k]), blockEnd(f.startPos, k, len(input))
	prev := l.m.link(input, lo, hi)
	hashEnd := hi - MinMatch + 1
	if keep {
		dst = binary.AppendUvarint(dst, uint64(hi-lo))
	}
	nflags, flagPos := 0, 0
	// The oldest open segment [a, b), of warp w, and the first of the
	// block's matches that may cover it.
	w := lo / warp
	a, b := lo, min(hi, (w+1)*warp)
	ms, open, searched := l.matches, len(l.matches), 0
	for i := lo; i < hi; {
		best, bestC := 0, -1
		if i < hashEnd && int(prev[i]) >= lo {
			searched++
			best, bestC = longest(input, prev, prev[i], i, lo, hi)
		}
		if best < MinMatch {
			best = 0
		}
		// r(i) ≤ max(best, MinMatch−1) now, so r(b) ≤ that + (i−b).
		for ; b <= i; a, b, w = b, min(hi, b+warp), w+1 {
			open += l.settle(ms[open:], k, w, lo, hi, a, b, max(best, MinMatch-1)+i-b)
		}
		if keep {
			if nflags == 0 {
				dst = slices.Grow(dst, groupBytes)
				flagPos = len(dst)
				dst = append(dst, 0)
			}
			if best > 0 {
				dst[flagPos] |= 1 << nflags
				v := uint16(i-bestC-1)<<4 | uint16(best-MinMatch)
				dst = append(dst, byte(v>>8), byte(v))
			} else {
				dst = append(dst, input[i])
			}
			nflags = (nflags + 1) & 7
		}
		if best == 0 {
			i++
			continue
		}
		ms = append(ms, match{int32(i), uint16(best), uint16(i - bestC)})
		i += best
	}
	// No token starts at or past b: the block end bounds the right edge.
	for ; a < hi; a, b, w = b, min(hi, b+warp), w+1 {
		open += l.settle(ms[open:], k, w, lo, hi, a, b, MaxMatch)
	}
	l.matches, l.searches.Token = ms, l.searches.Token+searched
	return dst
}

// settle makes the maximum cost 3·(i−lo) + 4·r(i) of segment [a, b) of block
// [lo, hi), warp w's share of block k, exact and records it (record). ms
// holds the block's matches that end past a; every other token is a
// literal, exact with r ≤ 2. The lower bound at a position a match (t, L)
// covers is t+L−i, exact at t, or 0 below MinMatch. rEdge bounds r(b). It
// returns how many of ms end at or before b.
//
// It walks the segment right to left, carrying an upper bound on each
// position's raw match length: a match (c, r) at i gives (c+1, r−1) at i+1,
// so r(i) ≤ r(i+1)+1. A position whose bound could lift the running maximum
// is searched; any other position's true cost is at most a maximum the lower
// bounds already reach. It goes a match at a time: once a match's bound
// meets its lower bound at some position, it does at every position left of
// it up to the match's start. It stops once even a MaxMatch at the current
// span could not lift the maximum.
func (l *fillLane) settle(ms []match, k, w, lo, hi, a, b, rEdge int) int {
	// The lower bounds' maximum: the segment's last span, or where a match
	// enters it — the bound falls by 4 a position and the span rises by at
	// most 3. A segment of literals alone is exact as it stands.
	run, n := 3*min(b-1-lo, WindowSize), 0
	if len(ms) == 0 {
		l.record(k, w, a, run)
		return 0
	}
	input, prev := l.f.input, l.m.prev
	for ; n < len(ms) && int(ms[n].pos) < b; n++ {
		p := max(int(ms[n].pos), a)
		if lb := int(ms[n].pos) + int(ms[n].len) - p; lb >= MinMatch {
			run = max(run, 3*min(p-lo, WindowSize)+4*lb)
		}
	}
	for q := n - 1; q >= 0; q-- {
		t, e := int(ms[q].pos), int(ms[q].pos)+int(ms[q].len)
		i := min(e, b) - 1
		if 3*min(i-lo, WindowSize)+4*MaxMatch <= run {
			break // no span left of i is longer, and no match beats MaxMatch
		}
		// The bound on r(i+1): rEdge past the segment, else the exact
		// token at e — a match, or a literal's r ≤ 2.
		rNext := MinMatch - 1
		if e >= b {
			rNext = rEdge
		} else if q+1 < n && int(ms[q+1].pos) == e {
			rNext = int(ms[q+1].len)
		}
		for ; i > t && i >= a; i-- {
			lb := e - i
			if lb < MinMatch {
				lb = 0
			}
			ub := min(hi-i, MaxMatch, rNext+1)
			if ub <= lb {
				break // r = lb from here to the match's start
			}
			span := 3 * min(i-lo, WindowSize)
			if ub < MinMatch || span+4*ub <= run {
				rNext = ub
				continue
			}
			// The chain at the time i was inserted continues at prev[i];
			// lb ≤ r(i) ≤ ub bounds the search.
			l.searches.Settle++
			if lb, _ = longer(input, prev, prev[i], i, lo, ub, lb); lb < MinMatch {
				lb = 0
			}
			if c := span + 4*lb; c > run {
				run = c
				l.searches.Raised++
			}
			rNext = max(lb, MinMatch-1)
		}
	}
	l.record(k, w, a, run)
	n = 0
	for n < len(ms) && int(ms[n].pos)+int(ms[n].len) <= b {
		n++
	}
	return n
}

// record folds segment [a, b)'s maximum cost, warp w's share of block k,
// into its warp's record: the segment holding the warp's first position
// writes it, later segments of the lane raise it, and segments of the lane's
// head warp — begun by an earlier lane — wait in headCost for the join.
func (l *fillLane) record(k, w, a, cost int) {
	f := l.f
	switch {
	case a == w*f.warp:
		f.warps[w] = warpCost{blk: int32(k), cost: int32(cost)}
	case w == l.head:
		l.headCost = max(l.headCost, cost)
	default:
		f.warps[w].cost = max(f.warps[w].cost, int32(cost))
	}
}
