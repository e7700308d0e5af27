// Package lzss implements the LZSS compression algorithm used by the
// paper's Dedup (replacing PARSEC's gzip/bzip2, following Stein et al.
// [24]), in the batch-oriented shape the paper's Fig. 2 describes:
//
//   - a 1 MB batch holds many content-defined blocks, delimited by the
//     startPos array produced by the Rabin chunker;
//   - FindMatches computes, for every byte position of the batch, the
//     longest match strictly inside that position's block and within the
//     sliding window — this is the work the paper offloads to the GPU as a
//     single FindMatchKernel call per batch (Listing 3);
//   - a greedy encoder then performs the cheap sequential entropy step on
//     the CPU, exactly as the paper does ("In CPU, we used the result of the
//     kernel function to run the compression on each block"), jumping over
//     every match it emits.
//
// Match semantics: a match for position i is a source range [c, c+L) with
// c in the same block, i-c <= WindowSize, c+L <= i (no self-overlap, as in
// the paper's kernel which stops the search at the current position), and
// MinMatch <= L <= MaxMatch. Among longest matches the nearest source wins.
//
// Three implementations are tested for exact equivalence: a brute-force
// reference with the kernel's loop structure (FindMatchesRef); the
// all-positions hash-chain FindMatches (and its lane-parallel
// FindMatchesPar), whose *cost model* in FastKernel still charges the
// brute-force work a real GPU would do; and the host encoder
// (*Matcher).AppendCompress, which every CPU compress path runs: the same
// chains, searched only where the greedy encoder starts a token, so no match
// is computed only to be jumped over, and its output is the greedy encoding
// of FindMatches's result byte for byte.
//
// Every walk reads its block's chains from one tight pass before it
// ((*Matcher).link): each position's trigram is hashed, linked to its
// bucket's previous position, and recorded in one head table of global
// positions. A head entry numbered before the block's first position is
// stale, so no table is cleared or stamped between blocks.
//
// The served GPU path feeds FastKernel from (*Matches).Fill, which walks
// each block once, as AppendCompress does, and keeps only what is read: the
// first sightings' encodings (the archive, so nothing re-encodes from the
// downloaded arrays), the match tokens (a launch leaves them at token starts
// and 0 elsewhere), and one exact charge per warp (what virtual time reads),
// with the all-positions lengths behind a launch on any other startPos slab,
// such as the all-zero one behind a failed upload.
package lzss

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"streamgpu/internal/pool"
)

const (
	// WindowSize is the sliding-window span in bytes (12-bit distances).
	WindowSize = 4096
	// MinMatch is the shortest encodable match.
	MinMatch = 3
	// MaxMatch is the longest encodable match (4-bit length field).
	MaxMatch = MinMatch + 15
)

const (
	hashBits = 15
	hashSize = 1 << hashBits
)

// hash mixes a trigram, its bytes big-endian in the low 24 bits, into a
// chain bucket.
func hash(v uint32) uint32 {
	return v * 2654435761 >> (32 - hashBits)
}

// blockEnd returns the end offset of the block starting at startPos[k].
func blockEnd(startPos []int32, k, inputLen int) int {
	if k+1 < len(startPos) {
		return int(startPos[k+1])
	}
	return inputLen
}

// FindMatchesRef is the brute-force reference with the same loop structure
// as the paper's Listing 3: for every position, scan the whole window
// backwards (nearest first) and keep the first strictly-longest match.
// matchLen[i] is 0 when no match of at least MinMatch exists; otherwise
// matchOff[i] is the backward distance (1..WindowSize).
func FindMatchesRef(input []byte, startPos []int32, matchLen, matchOff []int32) {
	checkMatchArgs(input, startPos, matchLen, matchOff)
	for k := range startPos {
		lo := int(startPos[k])
		hi := blockEnd(startPos, k, len(input))
		for i := lo; i < hi; i++ {
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
				limit := maxHere
				if d := i - c; limit > d {
					limit = d // no overlap: source must end at or before i
				}
				l := 0
				for l < limit && input[c+l] == input[i+l] {
					l++
				}
				if l > best {
					best, bestC = l, c
					if best == maxHere {
						break
					}
				}
			}
			if best >= MinMatch {
				matchLen[i] = int32(best)
				matchOff[i] = int32(i - bestC)
			} else {
				matchLen[i] = 0
				matchOff[i] = 0
			}
		}
	}
}

// Matcher holds the hash-chain tables FindMatches, AppendCompress and Fill
// share, so repeated calls reuse them instead of reallocating: head, the
// latest position of each hash bucket, and prev, the per-position chain
// links. head holds global positions: each block's positions are numbered
// past every earlier block's on one monotonic base, so an entry below the
// block's first number is stale and no table is touched between blocks. The
// zero value is ready to use; a Matcher must not be shared between
// concurrent calls. The streaming runtimes keep one Matcher per
// compress-stage replica.
type Matcher struct {
	head [hashSize]int32
	prev []int32
	base int32 // the global number of the last position linked
}

// NewMatcher returns a fresh Matcher.
func NewMatcher() *Matcher { return new(Matcher) }

// matcherPool backs the convenience FindMatches/Compress entry points so
// even the free functions stop allocating tables once warm.
var matcherPool = pool.New[*Matcher]("lzss.matcher", NewMatcher)

// FindMatches computes the same result as FindMatchesRef using per-block
// hash chains: only candidates sharing the first three bytes are visited,
// which cannot change the outcome because shorter candidates can never
// reach MinMatch. Candidates are walked nearest-first, matching the
// reference tie-break.
//
// This free function borrows a pooled Matcher; hot paths that own a
// replica should call (*Matcher).FindMatches directly.
func FindMatches(input []byte, startPos []int32, matchLen, matchOff []int32) {
	m := matcherPool.Get()
	m.FindMatches(input, startPos, matchLen, matchOff)
	matcherPool.Release(m)
}

// FindMatches is the reusable-state form of the package-level FindMatches;
// the result is bit-identical to FindMatchesRef. Two exact candidate-pruning
// steps keep it fast without changing any output:
//
//   - quick reject: a candidate can only beat the current best match if it
//     could be strictly longer (best < limit) and its byte at offset best
//     agrees with the target — otherwise its match length is <= best and
//     the reference would discard it too;
//   - wide compare: the common-prefix scan goes 8 bytes at a time via
//     XOR + trailing-zero count, which computes the same length.
func (m *Matcher) FindMatches(input []byte, startPos []int32, matchLen, matchOff []int32) {
	checkMatchArgs(input, startPos, matchLen, matchOff)
	m.findMatchesRange(input, startPos, 0, len(startPos), matchLen, matchOff)
}

// findMatchesRange runs the hash-chain search for blocks [k0, k1) only.
// All indices stay batch-absolute: block k covers
// [startPos[k], blockEnd(startPos, k, len(input))), and the match arrays are
// written exactly on that union of ranges. Because a block's chains never
// reach below its first position, the result for a block never depends on
// any other block — which is what makes a contiguous block range an
// independent unit of work (the lanes of RunLanes).
func (m *Matcher) findMatchesRange(input []byte, startPos []int32, k0, k1 int, matchLen, matchOff []int32) {
	for k := k0; k < k1; k++ {
		lo := int(startPos[k])
		hi := blockEnd(startPos, k, len(input))
		prev := m.link(input, lo, hi)
		for i := lo; i < hi; i++ {
			best, bestC := 0, -1
			if i < hi-MinMatch+1 && int(prev[i]) >= lo {
				best, bestC = longest(input, prev, prev[i], i, lo, hi)
			}
			if best >= MinMatch {
				matchLen[i] = int32(best)
				matchOff[i] = int32(i - bestC)
			} else {
				matchLen[i] = 0
				matchOff[i] = 0
			}
		}
	}
}

// link builds block [lo, hi)'s hash chains in one pass before any search:
// for every position i with MinMatch bytes left, prev[i] is the nearest
// earlier position of the block whose trigram hashes as i's does, or a
// value below lo when there is none. Chains only point backward, so prev[i]
// is the chain a search at i would have seen had positions been inserted as
// the walk reached them. It returns the links, indexed by batch position.
func (m *Matcher) link(input []byte, lo, hi int) []int32 {
	if len(input) > cap(m.prev) {
		m.prev = make([]int32, len(input))
	}
	prev := m.prev[:len(input)]
	if int(m.base)+hi-lo >= math.MaxInt32 {
		// Restart the numbering: every entry of a cleared head is stale.
		m.head, m.base = [hashSize]int32{}, 0
	}
	d := m.base + 1 - int32(lo) // global number = batch position + d
	m.base += int32(hi - lo)
	head := &m.head
	end := hi - MinMatch + 1
	i := lo
	for e := min(end, len(input)-3); i < e; i++ {
		h := hash(binary.BigEndian.Uint32(input[i:i+4]) >> 8)
		prev[i], head[h] = head[h]-d, int32(i)+d
	}
	if i < end { // the batch's last trigram has no fourth byte to load
		h := hash(uint32(input[i])<<16 | uint32(input[i+1])<<8 | uint32(input[i+2]))
		prev[i], head[h] = head[h]-d, int32(i)+d
	}
	return prev
}

// matchLen8 returns the length of the common prefix of input[c:] and
// input[i:], capped at limit, comparing 8 bytes at a time. Callers
// guarantee c < i, c+limit <= i and i+limit <= len(input).
func matchLen8(input []byte, c, i, limit int) int {
	l := 0
	for l+8 <= limit {
		x := binary.LittleEndian.Uint64(input[c+l:]) ^ binary.LittleEndian.Uint64(input[i+l:])
		if x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
		l += 8
	}
	for l < limit && input[c+l] == input[i+l] {
		l++
	}
	return l
}

// longest walks the hash chain from candidate c for position i of block
// [lo, hi) and returns the longest match, nearest first (bestC is -1 when
// none). It is the one chain search: FindMatches runs it at every position,
// AppendCompress and Fill where a token starts. A best below MinMatch is not
// the raw longest match: candidates whose first three bytes hash elsewhere
// were never visited.
func longest(input []byte, prev []int32, c int32, i, lo, hi int) (best, bestC int) {
	return longer(input, prev, c, i, lo, min(hi-i, MaxMatch), 0)
}

// longer is longest's walk for a match longer than best, at most maxHere
// bytes: it returns best and -1 when the chain holds none. Fill also runs it
// where a position could set its warp's cost, from the length it already
// knows and capped at the length it could reach.
func longer(input []byte, prev []int32, c int32, i, lo, maxHere, best int) (int, int) {
	bestC := -1
	for winLo := int32(max(i-WindowSize, lo)); c >= winLo; c = prev[c] {
		limit := min(maxHere, i-int(c))
		if best >= limit || input[int(c)+best] != input[i+best] {
			continue
		}
		if l := matchLen8(input, int(c), i, limit); l > best {
			best, bestC = l, int(c)
			if best == maxHere {
				break
			}
		}
	}
	return best, bestC
}

func checkMatchArgs(input []byte, startPos []int32, matchLen, matchOff []int32) {
	if len(matchLen) < len(input) || len(matchOff) < len(input) {
		panic(fmt.Sprintf("lzss: match arrays too short: %d/%d for %d bytes",
			len(matchLen), len(matchOff), len(input)))
	}
	checkStarts(input, startPos)
}

// checkStarts panics unless startPos cuts input into non-empty blocks.
func checkStarts(input []byte, startPos []int32) {
	for k, s := range startPos {
		if int(s) > len(input) || (k > 0 && s <= startPos[k-1]) || s < 0 {
			panic(fmt.Sprintf("lzss: bad startPos[%d]=%d", k, s))
		}
	}
	if len(input) > 0 && (len(startPos) == 0 || startPos[0] != 0) {
		panic("lzss: startPos must begin with 0")
	}
}

// Compress encodes a single standalone block.
func Compress(block []byte) []byte {
	m := matcherPool.Get()
	out := m.AppendCompress(nil, block)
	matcherPool.Release(m)
	return out
}

// groupBytes is the most one group of eight tokens takes: its flag byte and
// eight 2-byte pairs.
const groupBytes = 1 + 2*8

// AppendCompress encodes a single standalone block, appending to dst; with a
// recycled dst it does not allocate. One greedy walk over the block's chains
// (link), searched only where a token starts, so the output is
// byte-identical to the greedy encoding of FindMatches's result. A group's flag byte is
// written once, as 0, when the group opens, with room for the whole group,
// and each match ORs in its bit.
func (m *Matcher) AppendCompress(dst []byte, block []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(block)))
	hi := len(block)
	prev := m.link(block, 0, hi)
	// Positions at or past hashEnd have fewer than MinMatch bytes left: they
	// can neither start a match nor be linked.
	hashEnd := hi - MinMatch + 1
	nflags, flagPos := 0, 0
	for i := 0; i < hi; {
		if nflags == 0 {
			dst = slices.Grow(dst, groupBytes)
			flagPos = len(dst)
			dst = append(dst, 0)
		}
		best, bestC := 0, -1
		if i < hashEnd && prev[i] >= 0 {
			best, bestC = longest(block, prev, prev[i], i, 0, hi)
		}
		if best >= MinMatch {
			dst[flagPos] |= 1 << nflags
			v := uint16(i-bestC-1)<<4 | uint16(best-MinMatch)
			dst = append(dst, byte(v>>8), byte(v))
			i += best
		} else {
			dst = append(dst, block[i])
			i++
		}
		nflags = (nflags + 1) & 7
	}
	return dst
}

// ErrCorrupt is returned by Decompress for malformed input.
var ErrCorrupt = errors.New("lzss: corrupt input")

// Decompress decodes a block produced by Compress or AppendCompress.
func Decompress(comp []byte) ([]byte, error) {
	n, used := binary.Uvarint(comp)
	if used <= 0 {
		return nil, fmt.Errorf("%w: bad length header", ErrCorrupt)
	}
	if n > 1<<31 {
		return nil, fmt.Errorf("%w: implausible length %d", ErrCorrupt, n)
	}
	// Each compressed byte expands to at most MaxMatch output bytes (a
	// 2-byte pair yields <= MaxMatch, a literal yields 1), so a declared
	// length beyond that bound is corrupt — reject it before allocating,
	// or a tiny hostile input could demand gigabytes.
	if n > uint64(len(comp))*MaxMatch {
		return nil, fmt.Errorf("%w: length %d exceeds max expansion of %d input bytes", ErrCorrupt, n, len(comp))
	}
	out := make([]byte, 0, n)
	p := used
	var flags byte
	var nflags int
	for uint64(len(out)) < n {
		if nflags == 0 {
			if p >= len(comp) {
				return nil, fmt.Errorf("%w: truncated at flag byte", ErrCorrupt)
			}
			flags = comp[p]
			p++
			nflags = 8
		}
		isPair := flags&1 == 1
		flags >>= 1
		nflags--
		if isPair {
			if p+2 > len(comp) {
				return nil, fmt.Errorf("%w: truncated pair", ErrCorrupt)
			}
			v := uint16(comp[p])<<8 | uint16(comp[p+1])
			p += 2
			d := int(v>>4) + 1
			l := int(v&0xF) + MinMatch
			src := len(out) - d
			if src < 0 || src+l > len(out) {
				return nil, fmt.Errorf("%w: pair (d=%d,l=%d) out of range at %d", ErrCorrupt, d, l, len(out))
			}
			out = append(out, out[src:src+l]...)
		} else {
			if p >= len(comp) {
				return nil, fmt.Errorf("%w: truncated literal", ErrCorrupt)
			}
			out = append(out, comp[p])
			p++
		}
	}
	if uint64(len(out)) != n {
		return nil, fmt.Errorf("%w: length mismatch", ErrCorrupt)
	}
	return out, nil
}
