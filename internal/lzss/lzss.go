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
//   - AppendEncode then performs the cheap sequential
//     entropy step on the CPU, exactly as the paper does ("In CPU, we used
//     the result of the kernel function to run the compression on each
//     block"), jumping over every match it emits.
//
// Match semantics: a match for position i is a source range [c, c+L) with
// c in the same block, i-c <= WindowSize, c+L <= i (no self-overlap, as in
// the paper's kernel which stops the search at the current position), and
// MinMatch <= L <= MaxMatch. Among longest matches the nearest source wins.
//
// Three implementations are tested for exact equivalence: a brute-force
// reference with the kernel's loop structure (FindMatchesRef); the
// all-positions hash-chain FindMatches, the functional body of the GPU
// kernel, whose *cost model* still charges the brute-force work a real GPU
// would do; and the host encoder (*Matcher).AppendCompress, which every CPU
// compress path runs: the same chains, searched only where the greedy
// encoder starts a token, so no match is computed only to be jumped over.
package lzss

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

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

// hash3 mixes three bytes into a chain bucket.
func hash3(a, b, c byte) uint32 {
	v := uint32(a)<<16 | uint32(b)<<8 | uint32(c)
	return (v * 2654435761) >> (32 - hashBits) & (hashSize - 1)
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

// Matcher holds the hash-chain tables FindMatches and AppendCompress share
// (bucket heads, their epoch stamps, and the per-position chain links), so
// repeated calls reuse them instead of reallocating. The zero value is
// ready to use; a Matcher must not be shared between concurrent calls.
// The streaming runtimes keep one Matcher per compress-stage replica.
type Matcher struct {
	head  [hashSize]int32
	stamp [hashSize]int32
	prev  []int32
	epoch int32
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
// written exactly on that union of ranges. Because the chain tables are
// epoch-invalidated per block, the result for a block never depends on any
// other block — which is what makes a contiguous block range an independent
// unit of work (FindMatchesPar's lanes).
func (m *Matcher) findMatchesRange(input []byte, startPos []int32, k0, k1 int, matchLen, matchOff []int32) {
	if len(input) > cap(m.prev) {
		m.prev = make([]int32, len(input))
	}
	prev := m.prev[:cap(m.prev)]
	head, stamp := &m.head, &m.stamp
	for k := k0; k < k1; k++ {
		lo := int(startPos[k])
		hi := blockEnd(startPos, k, len(input))
		epoch := m.nextEpoch()
		for i := lo; i < hi; i++ {
			best, bestC := 0, -1
			maxHere := hi - i
			if maxHere > MaxMatch {
				maxHere = MaxMatch
			}
			if maxHere >= MinMatch {
				h := hash3(input[i], input[i+1], input[i+2])
				if stamp[h] == epoch {
					winLo := i - WindowSize
					if winLo < lo {
						winLo = lo
					}
					for c := head[h]; c >= int32(winLo); c = prev[c] {
						limit := maxHere
						if d := i - int(c); limit > d {
							limit = d
						}
						if best >= limit || input[int(c)+best] != input[i+best] {
							continue
						}
						l := matchLen8(input, int(c), i, limit)
						if l > best {
							best, bestC = l, int(c)
							if best == maxHere {
								break
							}
						}
					}
				}
				// Insert i for later positions (candidates are strictly
				// earlier, so insert after searching).
				m.insert(prev, h, i, epoch)
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

// nextEpoch starts a new block: bumping the epoch invalidates every chain
// bucket stamped by earlier blocks without touching the tables.
func (m *Matcher) nextEpoch() int32 {
	if m.epoch == math.MaxInt32 {
		// Epoch wrap: invalidate every stale stamp explicitly. In
		// practice unreachable (2^31 blocks), but cheap to be exact.
		m.stamp = [hashSize]int32{}
		m.epoch = 0
	}
	m.epoch++
	return m.epoch
}

// insert pushes position i onto bucket h's chain; a bucket last stamped in
// an earlier epoch (block) starts a fresh chain.
func (m *Matcher) insert(prev []int32, h uint32, i int, epoch int32) {
	if m.stamp[h] == epoch {
		prev[i] = m.head[h]
	} else {
		m.stamp[h] = epoch
		prev[i] = -1
	}
	m.head[h] = int32(i)
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

func checkMatchArgs(input []byte, startPos []int32, matchLen, matchOff []int32) {
	if len(matchLen) < len(input) || len(matchOff) < len(input) {
		panic(fmt.Sprintf("lzss: match arrays too short: %d/%d for %d bytes",
			len(matchLen), len(matchOff), len(input)))
	}
	for k, s := range startPos {
		if int(s) > len(input) || (k > 0 && s <= startPos[k-1]) || s < 0 {
			panic(fmt.Sprintf("lzss: bad startPos[%d]=%d", k, s))
		}
	}
	if len(input) > 0 && (len(startPos) == 0 || startPos[0] != 0) {
		panic("lzss: startPos must begin with 0")
	}
}

// AppendEncode greedily encodes the block [lo, hi) of the batch from the
// per-position matches (batch-absolute indices), reading them where the
// FindMatch kernel leaves them: matchLen and matchOff are little-endian int32
// arrays, as downloaded from the device, decoded only where a token starts.
// The encoded block — a uvarint of the uncompressed length, then the token
// stream — is appended to dst and the extended slice returned, so a batch
// grows one arena instead of allocating per block.
func AppendEncode(dst []byte, input []byte, lo, hi int, matchLen, matchOff []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(hi-lo))

	var flags byte
	var nflags int
	flagPos := -1
	i := lo
	for i < hi {
		if nflags == 0 {
			flagPos = len(dst)
			dst = append(dst, 0)
		}
		l := leInt32(matchLen, i)
		if l >= MinMatch {
			d := leInt32(matchOff, i)
			flags |= 1 << uint(nflags)
			v := uint16(d-1)<<4 | uint16(l-MinMatch)
			dst = append(dst, byte(v>>8), byte(v))
			i += l
		} else {
			dst = append(dst, input[i])
			i++
		}
		dst[flagPos] = flags
		nflags++
		if nflags == 8 {
			flags, nflags = 0, 0
		}
	}
	return dst
}

// EncodeFromMatches is AppendEncode for match arrays still in host form, as
// the experiment harness and the tests hold them: it lays the block's
// entries out the way the kernel would and returns a fresh encoding.
func EncodeFromMatches(input []byte, lo, hi int, matchLen, matchOff []int32) []byte {
	n := hi - lo
	le := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(le[4*i:], uint32(matchLen[lo+i]))
		binary.LittleEndian.PutUint32(le[4*(n+i):], uint32(matchOff[lo+i]))
	}
	dst := make([]byte, 0, n/2+16+binary.MaxVarintLen64)
	return AppendEncode(dst, input[lo:hi], 0, n, le[:4*n], le[4*n:])
}

// Compress encodes a single standalone block.
func Compress(block []byte) []byte {
	m := matcherPool.Get()
	out := m.AppendCompress(nil, block)
	matcherPool.Release(m)
	return out
}

// AppendCompress encodes a single standalone block, appending to dst; with a
// recycled dst it does not allocate. One greedy walk: search the chain only
// where a token starts, and only insert the positions a match skips. Every
// position is still inserted in order, so each search sees the chain
// FindMatches would have built and the output is byte-identical to
// FindMatches + AppendEncode.
func (m *Matcher) AppendCompress(dst []byte, block []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(block)))
	hi := len(block)
	if hi > cap(m.prev) {
		m.prev = make([]int32, hi)
	}
	prev := m.prev[:cap(m.prev)]
	head, stamp := &m.head, &m.stamp
	epoch := m.nextEpoch()
	// Positions at or past hashEnd have fewer than MinMatch bytes left: they
	// can neither start a match nor be hashed into the chain.
	hashEnd := hi - MinMatch + 1

	var flags byte
	nflags, flagPos := 0, -1
	for i := 0; i < hi; {
		if nflags == 0 {
			flagPos = len(dst)
			dst = append(dst, 0)
		}
		best, bestC := 0, -1
		if i < hashEnd {
			maxHere := min(hi-i, MaxMatch)
			h := hash3(block[i], block[i+1], block[i+2])
			if stamp[h] == epoch {
				winLo := int32(max(i-WindowSize, 0))
				for c := head[h]; c >= winLo; c = prev[c] {
					limit := min(maxHere, i-int(c))
					if best >= limit || block[int(c)+best] != block[i+best] {
						continue
					}
					if l := matchLen8(block, int(c), i, limit); l > best {
						best, bestC = l, int(c)
						if best == maxHere {
							break
						}
					}
				}
			}
			m.insert(prev, h, i, epoch)
		}
		if best >= MinMatch {
			flags |= 1 << uint(nflags)
			v := uint16(i-bestC-1)<<4 | uint16(best-MinMatch)
			dst = append(dst, byte(v>>8), byte(v))
			// Insert-only for the positions the match covers.
			for j, end := i+1, min(i+best, hashEnd); j < end; j++ {
				m.insert(prev, hash3(block[j], block[j+1], block[j+2]), j, epoch)
			}
			i += best
		} else {
			dst = append(dst, block[i])
			i++
		}
		dst[flagPos] = flags
		nflags++
		if nflags == 8 {
			flags, nflags = 0, 0
		}
	}
	return dst
}

// ErrCorrupt is returned by Decompress for malformed input.
var ErrCorrupt = errors.New("lzss: corrupt input")

// Decompress decodes a block produced by Compress/EncodeFromMatches.
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
