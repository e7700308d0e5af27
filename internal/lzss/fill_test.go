package lzss

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamgpu/internal/pool"
	"streamgpu/internal/rabin"
	"streamgpu/internal/workload"
)

// fillWarp is the warp width the tests fill for: the simulated devices'.
const fillWarp = 32

// fillCase is one batch of the Fill exactness table; the same set, cut to
// fuzzMaxBatch, seeds FuzzFillEquivalence.
type fillCase struct {
	name     string
	input    []byte
	startPos []int32
}

// everyN cuts n bytes into blocks of the given lengths, cycled.
func everyN(n int, lens ...int) []int32 {
	var sp []int32
	for pos, k := 0, 0; pos < n; k++ {
		sp = append(sp, int32(pos))
		pos += lens[k%len(lens)]
	}
	return sp
}

// fillCases is the table: a 1 MiB Rabin-cut batch of each paper dataset,
// then the edge shapes — blocks longer than the window (span saturates),
// one-byte blocks, runs, small alphabets, MaxMatch-periodic data, and the
// fused encoder's edge blocks back to back. Every batch but the paper ones
// ends in a partial warp.
func fillCases() []fillCase {
	var cs []fillCase
	for _, s := range workload.PaperSpecs(1.0 / 64) {
		s.Size = 1 << 20
		in := workload.Generate(s)
		cs = append(cs, fillCase{s.Kind.String(), in, rabin.NewChunker().Boundaries(in)})
	}
	alpha := func(n, a int, seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(a))
		}
		return b
	}
	var edges []byte
	var edgeStarts []int32
	for _, e := range edgeBlocks() {
		if len(e.data) > 0 {
			edgeStarts = append(edgeStarts, int32(len(edges)))
			edges = append(edges, e.data...)
		}
	}
	text := textLike(3*WindowSize+77, 31)
	return append(cs,
		fillCase{"window-plus", text, []int32{0, WindowSize + 5}},
		fillCase{"one-block", text[:WindowSize+1], []int32{0}},
		fillCase{"one-byte-blocks", periodic(301, 5), everyN(301, 1)},
		fillCase{"short-blocks", alpha(2000, 3, 32), everyN(2000, 1, 2, 3, 5, 33, 31, 64, 17)},
		fillCase{"run", bytes.Repeat([]byte{'a'}, 9000), everyN(9000, 1000, 1, 4500, 97)},
		fillCase{"alphabet-2", alpha(20_000, 2, 33), everyN(20_000, 5000, 333, 7000)},
		fillCase{"alphabet-4", alpha(20_000, 4, 34), everyN(20_000, 2047, 6001, 129)},
		fillCase{"period-18", bytes.Repeat(randomBytes(MaxMatch, 35), 700), everyN(18*700, 9000, 100)},
		fillCase{"edge-blocks", edges, edgeStarts},
		fillCase{"hash-collisions", collisions()[1], everyN(len(collisions()[1]), 999, 3001, 5)},
	)
}

// warpMax returns, per warp-aligned run of fillWarp positions, the largest
// 3·span + 4·len FastKernel charges a lane with the real block starts.
func warpMax(lens []int32, startPos []int32) []int {
	out := make([]int, (len(lens)+fillWarp-1)/fillWarp)
	for k := range startPos {
		lo, hi := int(startPos[k]), blockEnd(startPos, k, len(lens))
		for i := lo; i < hi; i++ {
			out[i/fillWarp] = max(out[i/fillWarp], 3*min(i-lo, WindowSize)+4*int(lens[i]))
		}
	}
	return out
}

// keepSink is a BlockSink that keeps every block but each third one
// (k%3 == 1), so both of Fill's paths run, and remembers where each block's
// bytes went.
type keepSink struct {
	arenas [maxLanes][]byte
	spans  [][3]int // per block: lane, start and end in that lane's arena
}

func keeps(k int) bool { return k%3 != 1 }

func (s *keepSink) EncodeLane(lane, k0, k1 int, enc func(dst []byte, k int, keep bool) []byte) {
	arena := s.arenas[lane][:0]
	for k := k0; k < k1; k++ {
		start := len(arena)
		arena = enc(arena, k, keeps(k))
		s.spans[k] = [3]int{lane, start, len(arena)}
	}
	s.arenas[lane] = arena
}

// fill fills c on lanes matchers into m, its encodings into s; a non-nil
// mt runs lane 0.
func (s *keepSink) fill(m *Matches, lanes int, c fillCase, mt *Matcher) {
	if cap(s.spans) < len(c.startPos) {
		s.spans = make([][3]int, len(c.startPos))
	}
	s.spans = s.spans[:len(c.startPos)]
	if mt != nil {
		m.fill(mt, lanes, c.input, c.startPos, fillWarp, s)
	} else {
		m.Fill(lanes, c.input, c.startPos, fillWarp, s)
	}
}

// block returns the bytes block k's encoding took in its lane's arena.
func (s *keepSink) block(k int) []byte {
	sp := s.spans[k]
	return s.arenas[sp[0]][sp[1]:sp[2]]
}

// launchArrays returns the match arrays a launch over m leaves, written
// warp by warp as FastKernel writes them.
func launchArrays(m *Matches, n int) (ml, mo []byte) {
	ml, mo = make([]byte, 4*n), make([]byte, 4*n)
	for i0 := 0; i0 < n; i0 += m.warp {
		m.put(ml, mo, i0, min(i0+m.warp, n))
	}
	return ml, mo
}

// checkFill fills c on lanes matchers and compares the result with
// AppendCompress's and FindMatchesPar's: every kept block's encoding
// byte-equal to AppendCompress's and every other block's empty; the arrays a
// launch leaves holding the reference at every greedy token start and 0
// elsewhere, so every entry is a valid match no longer than the reference's,
// or 0; and Fill's record of each warp naming the block of its first
// position and holding its maximum cost, split warps included. A non-nil mt
// runs lane 0. "" means the fill holds its contract.
func checkFill(c fillCase, lanes int, mt *Matcher) string {
	n := len(c.input)
	wantLen, wantOff := make([]int32, n), make([]int32, n)
	FindMatchesPar(1, c.input, c.startPos, wantLen, wantOff)
	var m Matches
	var sink keepSink
	sink.fill(&m, lanes, c, mt)
	var ref Matcher
	ml, mo := launchArrays(&m, n)
	for k := range c.startPos {
		lo, hi := int(c.startPos[k]), blockEnd(c.startPos, k, n)
		if want := ref.AppendCompress(nil, c.input[lo:hi]); !keeps(k) && len(sink.block(k)) != 0 ||
			keeps(k) && !bytes.Equal(sink.block(k), want) {
			return fmt.Sprintf("block %d [%d, %d), kept %v: Fill encoded %d bytes, AppendCompress %d", k, lo, hi, keeps(k), len(sink.block(k)), len(want))
		}
		next := lo
		for i := lo; i < hi; i++ {
			l, d := leInt32(ml, i), leInt32(mo, i)
			valid := l == 0 && d == 0 ||
				l >= MinMatch && l <= int(wantLen[i]) && d >= l && d <= WindowSize && i-d >= lo &&
					bytes.Equal(c.input[i-d:i-d+l], c.input[i:i+l])
			if !valid {
				return fmt.Sprintf("pos %d (block [%d, %d)): stored (%d, %d) is not a valid match up to the reference's (%d, %d)",
					i, lo, hi, l, d, wantLen[i], wantOff[i])
			}
			if i == next {
				if l != int(wantLen[i]) || d != int(wantOff[i]) {
					return fmt.Sprintf("token start %d: (%d, %d), FindMatchesPar (%d, %d)", i, l, d, wantLen[i], wantOff[i])
				}
				next += max(1, int(wantLen[i]))
			} else if l != 0 {
				return fmt.Sprintf("pos %d inside a token holds (%d, %d), want 0", i, l, d)
			}
		}
	}
	want := warpMax(wantLen, c.startPos)
	if len(m.warps) != len(want) {
		return fmt.Sprintf("%d warp records for %d warps", len(m.warps), len(want))
	}
	for w := range want {
		rk, _ := slices.BinarySearch(c.startPos, int32(w*fillWarp+1))
		if r := m.warps[w]; int(r.blk) != rk-1 || int(r.cost) != want[w] {
			return fmt.Sprintf("warp %d: record %+v, want block %d, cost %d", w, r, rk-1, want[w])
		}
	}
	return ""
}

// TestFillExact runs the table at one lane, and at three lanes requires the
// very same result: the fill is a function of the batch, not the lane count.
func TestFillExact(t *testing.T) {
	var one, three Matches
	var oneSink, threeSink keepSink
	for _, c := range fillCases() {
		t.Run(c.name, func(t *testing.T) {
			if d := checkFill(c, 1, nil); d != "" {
				t.Fatal(d)
			}
			oneSink.fill(&one, 1, c, nil)
			threeSink.fill(&three, 3, c, nil)
			if !slices.Equal(one.matches, three.matches) || !slices.Equal(one.warps, three.warps) || one.searches != three.searches {
				t.Fatal("one lane and three lanes fill different results")
			}
			for k := range c.startPos {
				if !bytes.Equal(oneSink.block(k), threeSink.block(k)) {
					t.Fatalf("block %d: one lane and three lanes encode different bytes", k)
				}
			}
		})
	}
	if d := checkFill(fillCase{"empty", nil, nil}, 1, nil); d != "" {
		t.Fatal(d)
	}
}

// parentSettleShare is the share of positions settle searches on each
// paper batch once a segment's right edge waits for the next token start's
// search (rounded up in the fourth decimal); the count repeats exactly for a
// batch, so a change may only lower it.
var parentSettleShare = map[string]float64{"Input Large": 0.0763, "Linux": 0.0977, "Silesia": 0.0628}

// TestFillSearchesLess records the point of the fill: on the paper batches
// it searches the chain at fewer positions than there are. It prints the
// searches as shares of all positions, and fails if settle's share rises
// above parentSettleShare.
func TestFillSearchesLess(t *testing.T) {
	t.Log("| dataset | token searches | settle searches | total | settle searches that raised a maximum |")
	t.Log("|---|---|---|---|---|")
	for _, c := range fillCases()[:3] {
		var m Matches
		m.Fill(1, c.input, c.startPos, fillWarp, nil)
		s, n := m.searches, float64(len(c.input))
		pct := func(x int) string { return fmt.Sprintf("%.1f %%", 100*float64(x)/n) }
		t.Logf("| %s | %s | %s | %s | %s |", c.name, pct(s.Token), pct(s.Settle), pct(s.Token+s.Settle), pct(s.Raised))
		if s.Token+s.Settle >= len(c.input) {
			t.Errorf("%s: %d searches over %d positions; the fill searched them all", c.name, s.Token+s.Settle, len(c.input))
		}
		if want, ok := parentSettleShare[c.name]; !ok || float64(s.Settle)/n > want {
			t.Errorf("%s: settle searched %.1f %% of positions, above %.1f %%", c.name, 100*float64(s.Settle)/n, 100*want)
		}
	}
}

// fuzzMaxBatch bounds fuzz batches; the table's seeds are cut to it.
const fuzzMaxBatch = 8 << 10

// encodeStarts lays startPos out as the fuzz target reads it: each block's
// length minus one as a little-endian uint16.
func encodeStarts(startPos []int32, n int) []byte {
	var b []byte
	for k := range startPos {
		b = binary.LittleEndian.AppendUint16(b, uint16(blockEnd(startPos, k, n)-int(startPos[k])-1))
	}
	return b
}

// FuzzFillEquivalence searches for a batch on which Fill breaks its
// contract against FindMatchesPar (checkFill), or a launch over its result
// costs other than its per-thread body on some startPos slab
// (checkFilledLaunches). Block lengths come from lens, cycled; an empty lens
// is one block.
func FuzzFillEquivalence(f *testing.F) {
	for _, c := range fillCases() {
		n := min(len(c.input), fuzzMaxBatch)
		sp := c.startPos[:max(1, len(c.startPos))]
		for len(sp) > 1 && int(sp[len(sp)-1]) >= n {
			sp = sp[:len(sp)-1]
		}
		f.Add(c.input[:n], encodeStarts(sp, n))
	}
	f.Fuzz(func(t *testing.T, data, lens []byte) {
		data = data[:min(len(data), fuzzMaxBatch)]
		var sp []int32
		for pos, k := 0, 0; pos < len(data); k++ {
			sp = append(sp, int32(pos))
			if len(lens) < 2 {
				break
			}
			j := 2 * (k % (len(lens) / 2))
			pos += 1 + int(binary.LittleEndian.Uint16(lens[j:]))
		}
		if d := checkFill(fillCase{"fuzz", data, sp}, 2, nil); d != "" {
			t.Fatal(d)
		}
		if len(data) > 0 {
			checkFilledLaunches(t, data, sp)
		}
	})
}

// TestFillAllocs pins a warm Fill, encodings included, to zero heap
// allocations per batch at one, two and four lanes.
func TestFillAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	input := textLike(256<<10, 22)
	c := fillCase{"text", input, rabin.NewChunker().Boundaries(input)}
	var m Matches
	var sink keepSink
	for _, lanes := range []int{1, 2, 4} {
		for i := 0; i < 3; i++ {
			sink.fill(&m, lanes, c, nil)
		}
		if allocs := testing.AllocsPerRun(10, func() { sink.fill(&m, lanes, c, nil) }); allocs != 0 {
			t.Fatalf("Fill at %d lanes allocates %v per batch, want 0", lanes, allocs)
		}
	}
}

// BenchmarkFill prices the fill, encodings included, on one lane over each
// paper batch, a random (incompressible) and a pure-text batch against the
// all-positions matcher it replaced on the GPU path and against
// AppendCompress over the same blocks, the CPU path's work. The fill leg
// reports its settle searches per MB, a count that repeats exactly for a
// batch.
func BenchmarkFill(b *testing.B) {
	random, text := randomBytes(1<<20, 41), textLike(1<<20, 42)
	for _, c := range append(fillCases()[:3:3],
		fillCase{"random", random, rabin.NewChunker().Boundaries(random)},
		fillCase{"text", text, rabin.NewChunker().Boundaries(text)}) {
		mb := float64(len(c.input)) / 1e6
		ml, mo := make([]int32, len(c.input)), make([]int32, len(c.input))
		b.Run(c.name+"/all-positions", func(b *testing.B) {
			b.SetBytes(int64(len(c.input)))
			for i := 0; i < b.N; i++ {
				FindMatchesPar(1, c.input, c.startPos, ml, mo)
			}
		})
		b.Run(c.name+"/fill", func(b *testing.B) {
			var m Matches
			var sink keepSink
			b.SetBytes(int64(len(c.input)))
			for i := 0; i < b.N; i++ {
				sink.fill(&m, 1, c, nil)
			}
			b.ReportMetric(float64(m.searches.Settle)/mb, "settle-searches/MB")
		})
		b.Run(c.name+"/append-compress", func(b *testing.B) {
			var mt Matcher
			var dst []byte
			b.SetBytes(int64(len(c.input)))
			for i := 0; i < b.N; i++ {
				dst = dst[:0]
				for k := range c.startPos {
					dst = mt.AppendCompress(dst, c.input[c.startPos[k]:blockEnd(c.startPos, k, len(c.input))])
				}
			}
		})
	}
}
