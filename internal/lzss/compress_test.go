package lzss

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refCompress is the encoder AppendCompress must reproduce byte for byte:
// the brute-force all-positions reference followed by the greedy encoder.
func refCompress(block []byte) []byte {
	ml := make([]int32, len(block))
	mo := make([]int32, len(block))
	FindMatchesRef(block, []int32{0}, ml, mo)
	return EncodeFromMatches(block, 0, len(block), ml, mo)
}

// AppendEncode is the greedy encoder the fused walks (AppendCompress, Fill)
// must reproduce: it encodes the block [lo, hi) of the batch from the
// per-position matches (batch-absolute indices), laid out as the FindMatch
// kernel leaves them: matchLen and matchOff are little-endian int32 arrays,
// decoded only where a token starts. The encoded block — a uvarint of the
// uncompressed length, then the token stream — is appended to dst and the
// extended slice returned.
func AppendEncode(dst []byte, input []byte, lo, hi int, matchLen, matchOff []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(hi-lo))

	nflags, flagPos := 0, 0
	for i := lo; i < hi; {
		if nflags == 0 {
			flagPos = len(dst)
			dst = append(dst, 0)
		}
		if l := leInt32(matchLen, i); l >= MinMatch {
			dst[flagPos] |= 1 << nflags
			v := uint16(leInt32(matchOff, i)-1)<<4 | uint16(l-MinMatch)
			dst = append(dst, byte(v>>8), byte(v))
			i += l
		} else {
			dst = append(dst, input[i])
			i++
		}
		nflags = (nflags + 1) & 7
	}
	return dst
}

// EncodeFromMatches is AppendEncode for match arrays in host form, as
// FindMatches and FindMatchesRef write them: it lays the block's
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

// checkCompressEquivalence asserts m.AppendCompress(block) appends exactly
// refCompress(block) after an untouched prefix and round-trips. It returns
// false instead of failing so property tests can report the failing input.
func checkCompressEquivalence(t testing.TB, m *Matcher, name string, block []byte) bool {
	t.Helper()
	want := refCompress(block)
	got := m.AppendCompress([]byte{0xAA, 0xBB}, block)
	if !bytes.Equal(got[:2], []byte{0xAA, 0xBB}) || !bytes.Equal(got[2:], want) {
		t.Errorf("%s (len %d): AppendCompress differs from FindMatchesRef+AppendEncode", name, len(block))
		return false
	}
	back, err := Decompress(got[2:])
	if err != nil || !bytes.Equal(back, block) {
		t.Errorf("%s (len %d): round trip failed: %v", name, len(block), err)
		return false
	}
	return true
}

// edgeBlock is one named input of the equivalence table; the same set seeds
// FuzzCompressEquivalence.
type edgeBlock struct {
	name string
	data []byte
}

// edgeBlocks lists the block shapes the fused encoder's skip loop can get
// wrong.
func edgeBlocks() []edgeBlock {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	word := []byte("abcdefgh")
	rnd40 := randomBytes(40, 21)
	page := randomBytes(WindowSize+1, 22)
	return []edgeBlock{
		{"empty", nil},
		{"one", []byte{7}},
		{"two", []byte{7, 7}},
		{"three-equal", []byte{7, 7, 7}},
		{"three-distinct", []byte{1, 2, 3}},
		// A match ending 0, 1 and 2 bytes before the block end: link must
		// stop where a trigram would read past the end.
		{"match-at-end", cat(word, []byte{'X'}, word)},
		{"match-end-minus-1", cat(word, []byte{'X'}, word, []byte{'Y'})},
		{"match-end-minus-2", cat(word, []byte{'X'}, word, []byte("YZ"))},
		{"short-match-at-end", cat(word, []byte{'X'}, word[:MinMatch])},
		// All-equal runs: the no-self-overlap limit d caps every match.
		{"run-4", bytes.Repeat([]byte{'a'}, 4)},
		{"run-100", bytes.Repeat([]byte{'a'}, 100)},
		{"run-window+100", bytes.Repeat([]byte{'a'}, WindowSize+100)},
		{"ab-5000", bytes.Repeat([]byte("ab"), 5000)},
		// Window edge: period 4096 has every source exactly WindowSize
		// back (reachable), period 4097 one byte too far.
		{"period-4096", cat(page[:WindowSize], page[:WindowSize], page[:700])},
		{"period-4097", cat(page, page, page[:700])},
		// MaxMatch-saturated: every match after the first period is 18 long.
		{"period-40", bytes.Repeat(rnd40, 60)},
		{"period-18", bytes.Repeat(rnd40[:MaxMatch], 50)},
		{"period-19", bytes.Repeat(rnd40[:MaxMatch+1], 50)},
		{"text", textLike(9000, 23)},
		{"random", randomBytes(3000, 24)},
		{"period-7", periodic(2000, 7)},
		{"collide-distinct", collisions()[0]},
		{"collide-repeats", collisions()[1]},
	}
}

// collisions returns two blocks made of distinct trigrams that all hash to
// one chain bucket, found by a search over every trigram: the first holds
// each once (no match, long chains of false candidates), the second draws
// them at random from a few, so true and false candidates interleave.
var collisions = sync.OnceValue(func() [2][]byte {
	var same [][]byte
	target := hash('a'<<16 | 'b'<<8 | 'c')
	for v := uint32(0); v < 1<<24; v++ {
		if hash(v) == target {
			same = append(same, []byte{byte(v >> 16), byte(v >> 8), byte(v)})
		}
	}
	rng := rand.New(rand.NewSource(25))
	var repeats []byte
	for range 1500 {
		repeats = append(repeats, same[rng.Intn(12)]...)
	}
	return [2][]byte{bytes.Join(same, nil), repeats}
})

// TestHashCollisions runs the colliding blocks through all three walkers:
// a same-bucket candidate with another trigram is only a rejected visit.
func TestHashCollisions(t *testing.T) {
	m := NewMatcher()
	for i, b := range collisions() {
		if len(b) < 1000 {
			t.Fatalf("block %d: %d bytes; the trigram search found too few collisions", i, len(b))
		}
		checkCompressEquivalence(t, m, "collisions", b)
		starts := []int32{0, int32(len(b) / 3), int32(len(b)/3 + 1)}
		ml, mo := make([]int32, len(b)), make([]int32, len(b))
		wantLen, wantOff := make([]int32, len(b)), make([]int32, len(b))
		FindMatchesRef(b, starts, wantLen, wantOff)
		m.FindMatches(b, starts, ml, mo)
		if !slices.Equal(ml, wantLen) || !slices.Equal(mo, wantOff) {
			t.Errorf("block %d: FindMatches differs from FindMatchesRef", i)
		}
		if d := checkFill(fillCase{"collisions", b, starts}, 2, nil); d != "" {
			t.Errorf("block %d: Fill: %s", i, d)
		}
	}
}

// TestAppendCompressEquivalenceTable runs every edge shape through one
// Matcher, twice and in both orders, so each block is also encoded on chain
// tables dirtied by every other shape (head entries left by earlier blocks).
func TestAppendCompressEquivalenceTable(t *testing.T) {
	cases := edgeBlocks()
	m := NewMatcher()
	for _, c := range cases {
		checkCompressEquivalence(t, m, c.name, c.data)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		checkCompressEquivalence(t, m, cases[i].name+"/reversed", cases[i].data)
	}
}

// TestAppendCompressEquivalenceProperty is the seeded-random property:
// small-alphabet and text-like blocks of arbitrary length, all on one
// Matcher, are byte-equal to the reference encoder.
func TestAppendCompressEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := NewMatcher()
	iters := 80
	if testing.Short() {
		iters = 20
	}
	for it := 0; it < iters; it++ {
		size := rng.Intn(WindowSize + 600) // some blocks outgrow the window
		var data []byte
		if it%4 == 3 {
			data = textLike(size, rng.Int63())
		} else {
			alpha := rng.Intn(8) + 1 // alphabet 1 is an all-equal run
			data = make([]byte, size)
			for i := range data {
				data[i] = byte(rng.Intn(alpha))
			}
		}
		if !checkCompressEquivalence(t, m, "random", data) {
			t.Fatalf("iteration %d: size %d, data %q", it, size, data)
		}
	}
}

// TestBaseWrap starts each walker's position numbering just below the point
// where link restarts it, so a batch's blocks straddle the restart: entries
// numbered before it must not alias positions numbered after it.
func TestBaseWrap(t *testing.T) {
	blocks := [][]byte{textLike(3000, 31), periodic(2500, 11), textLike(3000, 32)}
	input := bytes.Join(blocks, nil)
	m := NewMatcher()
	m.base = math.MaxInt32 - 4000
	for round := 0; round < 3; round++ {
		for _, b := range blocks {
			checkCompressEquivalence(t, m, "wrap", b)
		}
	}
	if int(m.base) > 3*len(input) {
		t.Fatalf("AppendCompress: numbering did not restart: base %d", m.base)
	}

	c := fillCase{"wrap", input, []int32{0, 3000, 5500}}
	ml, mo := make([]int32, len(input)), make([]int32, len(input))
	wantLen, wantOff := make([]int32, len(input)), make([]int32, len(input))
	FindMatchesRef(input, c.startPos, wantLen, wantOff)
	m.base = math.MaxInt32 - 4000
	m.FindMatches(input, c.startPos, ml, mo)
	if !slices.Equal(ml, wantLen) || !slices.Equal(mo, wantOff) {
		t.Error("FindMatches across the restart differs from FindMatchesRef")
	}
	m.base = math.MaxInt32 - 4000
	if d := checkFill(c, 1, m); d != "" {
		t.Errorf("Fill across the restart: %s", d)
	}
	if int(m.base) > len(input) {
		t.Fatalf("Fill: numbering did not restart: base %d", m.base)
	}
}

// fuzzMaxBlock bounds fuzz inputs: the brute-force reference is
// O(len × WindowSize), and real blocks are a few KB. It still admits the
// two-period window-edge seeds whole.
const fuzzMaxBlock = 10 << 10

// FuzzCompressEquivalence searches for a block on which the fused encoder
// and the all-positions reference disagree. The first half of the input is
// compressed first on the same Matcher so the chain tables are never clean.
func FuzzCompressEquivalence(f *testing.F) {
	for _, c := range edgeBlocks() {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxBlock {
			data = data[:fuzzMaxBlock]
		}
		m := NewMatcher()
		m.AppendCompress(nil, data[:len(data)/2])
		checkCompressEquivalence(t, m, "fuzz", data)
	})
}
