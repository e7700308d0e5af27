// Package rabin implements Rabin fingerprinting over a sliding window and
// content-defined chunking on top of it — the fragmentation algorithm
// PARSEC's dedup uses to find block boundaries.
//
// A Rabin fingerprint treats bytes as coefficients of a polynomial over
// GF(2) and reduces modulo an irreducible polynomial P. Because the
// fingerprint of a sliding window can be updated in O(1) per byte (push the
// incoming byte, pop the outgoing one via precomputed tables), it is the
// standard tool for finding content-defined cut points: a boundary is
// declared wherever fp mod 2^avgBits == magic, so boundaries move with the
// content rather than with file offsets — insertions only disturb
// neighbouring blocks, which is what makes deduplication effective.
//
// The paper's GPU Dedup keeps this exact algorithm on the CPU ("in order to
// still benefit from the rabin fingerprint, we ran the algorithm on CPU and
// saved all the indexes") and our internal/dedup does the same.
//
// The chunker does not roll one fingerprint through the input. A cut is only
// tested once a block holds Min >= WindowSize bytes, and from then on the
// fingerprint is a function of the last WindowSize bytes alone, not of where
// the block started. So whether an offset is a cut-point candidate can be
// decided for every offset independently: AppendBoundaries scans each round
// of 8 KiB with four independent chains interleaved in one loop, each primed
// with the WindowSize bytes before its span, records the candidates in an
// on-stack bitmap, and then walks the bitmap in order applying the Min/Max
// rule. The boundaries equal those of a single chain that restarts at every
// cut; the package tests hold the two equal.
package rabin

import "math/bits"

// DefaultPoly is a degree-53 irreducible polynomial over GF(2), the one
// used by LBFS and PARSEC's dedup (0x3DA3358B4DC173).
const DefaultPoly uint64 = 0x3DA3358B4DC173

// WindowSize is the sliding window length in bytes (PARSEC dedup uses 32).
const WindowSize = 32

// Table holds the precomputed push/pop tables for one polynomial.
type Table struct {
	poly  uint64
	shift uint // degree of poly minus 1: position of the top coefficient
	modT  [256]uint64
	outT  [256]uint64
}

// NewTable builds tables for the given irreducible polynomial, which must
// have degree >= 9 (so a whole byte fits under the top coefficient).
func NewTable(poly uint64) *Table {
	d := deg(poly)
	if d < 9 {
		panic("rabin: polynomial degree must be >= 9")
	}
	t := &Table{poly: poly, shift: uint(d) - 8}
	// modT[b] clears the top byte b sitting at bit position deg(poly) and
	// XORs in its reduction, so `x ^ modT[x>>shift]` reduces x in one step.
	for b := 0; b < 256; b++ {
		v := uint64(b) << uint(d)
		t.modT[b] = v ^ mod(v, poly)
	}
	// outT[b] = (b << (8*(WindowSize-1))) mod poly — the contribution of
	// the byte leaving the window.
	for b := 0; b < 256; b++ {
		t.outT[b] = polyShiftMod(uint64(b), 8*(WindowSize-1), poly)
	}
	return t
}

// deg returns the degree of the polynomial (position of the highest set
// bit).
func deg(p uint64) int {
	d := -1
	for i := 0; i < 64; i++ {
		if p&(1<<uint(i)) != 0 {
			d = i
		}
	}
	return d
}

// mod reduces x modulo polynomial p over GF(2).
func mod(x, p uint64) uint64 {
	d := deg(p)
	for i := 63; i >= d; i-- {
		if x&(1<<uint(i)) != 0 {
			x ^= p << uint(i-d)
		}
	}
	return x
}

// polyShiftMod computes (x << n) mod p by repeated squaring-free shifting
// (8 bits at a time via mod).
func polyShiftMod(x uint64, n int, p uint64) uint64 {
	for i := 0; i < n; i++ {
		x <<= 1
		if deg(x) >= deg(p) {
			x ^= p
		}
	}
	return x
}

// defaultTable is shared by everyone using DefaultPoly.
var defaultTable = NewTable(DefaultPoly)

// roll slides a window fingerprint one byte forward: out leaves the window,
// in enters it, and the fold table reduces the result, so fp < 2^deg(poly)
// holds across rolls. Rolling WindowSize bytes into fp = 0 with out = 0
// yields the fingerprint of exactly those bytes.
func roll(modT, outT *[256]uint64, shift uint, fp uint64, out, in byte) uint64 {
	fp ^= outT[out]
	return (fp<<8 | uint64(in)) ^ modT[byte(fp>>shift)]
}

// Chunker finds content-defined block boundaries. AvgBits controls the
// expected block size (2^AvgBits bytes); Min and Max clamp block sizes, as
// dedup implementations do to avoid degenerate tiny/huge blocks. Min must be
// at least WindowSize, so that every tested fingerprint covers a full window
// of the block's own bytes; AppendBoundaries panics otherwise.
type Chunker struct {
	Table   *Table
	AvgBits uint
	Min     int
	Max     int
	Magic   uint64
}

// NewChunker returns a chunker with PARSEC-dedup-like defaults: expected
// block 2 KiB, minimum 256 B, maximum 16 KiB.
func NewChunker() *Chunker {
	return &Chunker{Table: defaultTable, AvgBits: 11, Min: 256, Max: 16 * 1024, Magic: 0x78}
}

// Boundaries returns the block start offsets for data — the startPos array
// of the paper's Fig. 2. The first boundary is always 0; each block is
// between Min and Max bytes except possibly the last.
func (c *Chunker) Boundaries(data []byte) []int32 {
	if len(data) == 0 {
		return nil
	}
	return c.AppendBoundaries(nil, data)
}

// Candidate scan geometry: a round decides roundSize consecutive boundary
// offsets as four spans of chainSpan, one chain each (scanRound is written
// for chains = 4). One chain is a serial dependency (table load, shift, xor
// per byte); interleaved ones overlap in the core.
const (
	chains     = 4
	chainSpan  = 2 << 10
	roundSize  = chains * chainSpan
	roundWords = roundSize / 64
)

// AppendBoundaries appends data's block start offsets to dst and returns the
// extended slice — the allocation-free form of Boundaries for hot paths
// that recycle the startPos array across batches (pass dst[:0] to reuse).
// The candidate bitmap lives on the stack, so a call whose dst has capacity
// for the boundaries performs zero heap allocations.
//
// A boundary b > 0 is a candidate when the fingerprint of data[b-WindowSize:b]
// matches Magic under the AvgBits mask. Each block ends at its first candidate
// at least Min bytes in, or after max(Min, Max) bytes, whichever comes first;
// a cut at len(data) is not reported.
func (c *Chunker) AppendBoundaries(dst []int32, data []byte) []int32 {
	if c.Min < WindowSize {
		panic("rabin: Chunker.Min must be at least WindowSize")
	}
	if len(data) == 0 {
		return dst
	}
	dst = append(dst, 0)
	n := len(data)
	maxSize := min(max(c.Min, c.Max), n) // clamped so b+maxSize cannot overflow
	mask := (uint64(1) << c.AvgBits) - 1
	magic := c.Magic & mask
	// next is the first boundary the current block may take, force the one
	// it must take.
	next, force := c.Min, maxSize
	var bm [roundWords]uint64
	for lo := WindowSize; lo < n && next < n; lo += roundSize {
		// The round decides offsets [base, hi). The last one slides back to
		// stay full; the offsets it decides twice were searched already.
		base := lo
		if n-lo < roundSize && n-roundSize >= WindowSize {
			base = n - roundSize
		}
		hi := min(base+roundSize, n)
		bm = [roundWords]uint64{}
		if hi-base == roundSize {
			c.Table.scanRound(&bm, (*[WindowSize + roundSize]byte)(data[base-WindowSize:hi]), mask, magic)
		} else {
			c.Table.scanShort(&bm, data[base-WindowSize:hi], mask, magic)
		}
		for {
			b := min(base+firstSet(&bm, max(next, lo)-base), force)
			if b >= hi {
				break
			}
			dst = append(dst, int32(b))
			next, force = b+c.Min, b+maxSize
		}
	}
	return dst
}

// scanRound sets bit k of bm for every k < roundSize whose window
// w[k:k+WindowSize] is a cut-point candidate, rolling the round's four
// (chains) spans side by side.
func (t *Table) scanRound(bm *[roundWords]uint64, w *[WindowSize + roundSize]byte, mask, magic uint64) {
	modT, outT, shift := &t.modT, &t.outT, t.shift&63
	var f0, f1, f2, f3 uint64
	for j := 0; j < WindowSize; j++ {
		f0 = roll(modT, outT, shift, f0, 0, w[j])
		f1 = roll(modT, outT, shift, f1, 0, w[chainSpan+j])
		f2 = roll(modT, outT, shift, f2, 0, w[2*chainSpan+j])
		f3 = roll(modT, outT, shift, f3, 0, w[3*chainSpan+j])
	}
	for j := 0; j < chainSpan; j++ {
		if f0&mask == magic {
			bm[j>>6] |= 1 << (j & 63)
		}
		if f1&mask == magic {
			bm[(chainSpan+j)>>6] |= 1 << (j & 63)
		}
		if f2&mask == magic {
			bm[(2*chainSpan+j)>>6] |= 1 << (j & 63)
		}
		if f3&mask == magic {
			bm[(3*chainSpan+j)>>6] |= 1 << (j & 63)
		}
		f0 = roll(modT, outT, shift, f0, w[j], w[j+WindowSize])
		f1 = roll(modT, outT, shift, f1, w[chainSpan+j], w[chainSpan+j+WindowSize])
		f2 = roll(modT, outT, shift, f2, w[2*chainSpan+j], w[2*chainSpan+j+WindowSize])
		f3 = roll(modT, outT, shift, f3, w[3*chainSpan+j], w[3*chainSpan+j+WindowSize])
	}
}

// scanShort is scanRound on one chain, for an input too short to fill a
// round: it decides the len(w)-WindowSize offsets of w.
func (t *Table) scanShort(bm *[roundWords]uint64, w []byte, mask, magic uint64) {
	modT, outT, shift := &t.modT, &t.outT, t.shift&63
	var fp uint64
	for _, in := range w[:WindowSize] {
		fp = roll(modT, outT, shift, fp, 0, in)
	}
	for k, in := range w[WindowSize:] {
		if fp&mask == magic {
			bm[k>>6] |= 1 << (k & 63)
		}
		fp = roll(modT, outT, shift, fp, w[k], in)
	}
}

// firstSet returns the index of the lowest set bit of bm at or above from, or
// roundSize if there is none.
func firstSet(bm *[roundWords]uint64, from int) int {
	if from >= roundSize {
		return roundSize
	}
	w := from >> 6
	x := bm[w] &^ (1<<(from&63) - 1)
	for x == 0 {
		if w++; w == roundWords {
			return roundSize
		}
		x = bm[w]
	}
	return w<<6 | bits.TrailingZeros64(x)
}

// Split cuts data into blocks at the chunker's boundaries.
func (c *Chunker) Split(data []byte) [][]byte {
	starts := c.Boundaries(data)
	blocks := make([][]byte, 0, len(starts))
	for i, s := range starts {
		end := len(data)
		if i+1 < len(starts) {
			end = int(starts[i+1])
		}
		blocks = append(blocks, data[s:end])
	}
	return blocks
}
