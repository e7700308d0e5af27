package lzss

import (
	"bytes"
	"math/rand"
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
		// A match ending 0, 1 and 2 bytes before the block end: the
		// insert-only loop must stop where hash3 would read past the end.
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
	}
}

// TestAppendCompressEquivalenceTable runs every edge shape through one
// Matcher, twice and in both orders, so each block is also encoded on chain
// tables dirtied by every other shape (epoch reuse across blocks).
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

// TestAppendCompressEpochWrap forces the epoch counter through its wrap so
// stale stamps from before the wrap cannot alias the first epochs after it.
func TestAppendCompressEpochWrap(t *testing.T) {
	m := NewMatcher()
	blocks := [][]byte{textLike(3000, 31), periodic(2500, 11), textLike(3000, 32)}
	m.epoch = 1<<31 - 3
	for round := 0; round < 3; round++ {
		for _, b := range blocks {
			checkCompressEquivalence(t, m, "wrap", b)
		}
	}
	if m.epoch > 16 {
		t.Fatalf("epoch did not wrap: %d", m.epoch)
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
