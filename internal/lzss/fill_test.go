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

// checkFill fills c on lanes matchers and compares the result with
// FindMatchesPar's: every greedy token start exact, every other entry a
// valid match no longer than the reference's, every warp's maximum cost
// equal, and Fill's record of each warp that maximum — or the rescan mark,
// exactly where a block boundary splits the warp. "" means the fill holds
// its contract.
func checkFill(c fillCase, lanes int) string {
	n := len(c.input)
	wantLen, wantOff := make([]int32, n), make([]int32, n)
	FindMatchesPar(1, c.input, c.startPos, wantLen, wantOff)
	var m Matches
	m.fill(lanes, c.input, c.startPos, fillWarp)
	for k := range c.startPos {
		lo, hi := int(c.startPos[k]), blockEnd(c.startPos, k, n)
		for i := lo; i < hi; i++ {
			l, d := leInt32(m.Len, i), leInt32(m.Off, i)
			valid := l == 0 && d == 0 ||
				l >= MinMatch && l <= int(wantLen[i]) && d >= l && d <= WindowSize && i-d >= lo &&
					bytes.Equal(c.input[i-d:i-d+l], c.input[i:i+l])
			if !valid {
				return fmt.Sprintf("pos %d (block [%d, %d)): stored (%d, %d) is not a valid match up to the reference's (%d, %d)",
					i, lo, hi, l, d, wantLen[i], wantOff[i])
			}
		}
		for i := lo; i < hi; i += max(1, int(wantLen[i])) {
			if leInt32(m.Len, i) != int(wantLen[i]) || leInt32(m.Off, i) != int(wantOff[i]) {
				return fmt.Sprintf("token start %d: (%d, %d), FindMatchesPar (%d, %d)", i, leInt32(m.Len, i), leInt32(m.Off, i), wantLen[i], wantOff[i])
			}
		}
	}
	got := make([]int32, n)
	for i := range got {
		got[i] = int32(leInt32(m.Len, i))
	}
	gotMax, want := warpMax(got, c.startPos), warpMax(wantLen, c.startPos)
	if len(m.warps) != len(want) {
		return fmt.Sprintf("%d warp records for %d warps", len(m.warps), len(want))
	}
	for w := range want {
		if gotMax[w] != want[w] {
			return fmt.Sprintf("warp %d: max cost %d, FindMatchesPar %d", w, gotMax[w], want[w])
		}
		j0 := w * fillWarp
		rk, _ := slices.BinarySearch(c.startPos, int32(j0+1))
		rk--
		split := blockEnd(c.startPos, rk, n) < min(j0+fillWarp, n)
		if r := m.warps[w]; int(r.blk) != rk || (r.cost < 0) != split || !split && int(r.cost) != want[w] {
			return fmt.Sprintf("warp %d: record %+v, want block %d, split %v, cost %d", w, r, rk, split, want[w])
		}
	}
	return ""
}

// TestFillExact runs the table at one lane, and at three lanes requires the
// very same arrays: the fill is a function of the batch, not the lane count.
func TestFillExact(t *testing.T) {
	var one, three Matches
	for _, c := range fillCases() {
		t.Run(c.name, func(t *testing.T) {
			if d := checkFill(c, 1); d != "" {
				t.Fatal(d)
			}
			one.fill(1, c.input, c.startPos, fillWarp)
			three.fill(3, c.input, c.startPos, fillWarp)
			if !bytes.Equal(one.Len, three.Len) || !bytes.Equal(one.Off, three.Off) ||
				!slices.Equal(one.warps, three.warps) || one.searches != three.searches {
				t.Fatal("one lane and three lanes fill different arrays")
			}
		})
	}
	if d := checkFill(fillCase{"empty", nil, nil}, 1); d != "" {
		t.Fatal(d)
	}
}

// parentSettleShare is the share of positions settle searched on each
// paper batch while it also kept every warp exact for the all-zero startPos
// slab; launches on that slab now read the all-positions arrays instead, so
// settle may only search less.
var parentSettleShare = map[string]float64{"Input Large": 0.132, "Linux": 0.175, "Silesia": 0.101}

// TestFillSearchesLess records the point of the fill: on the paper batches
// it searches the chain at fewer positions than there are. It prints the
// searches as shares of all positions, and fails if settle's share rises
// above parentSettleShare.
func TestFillSearchesLess(t *testing.T) {
	t.Log("| dataset | token searches | settle searches | total | settle searches that raised a maximum |")
	t.Log("|---|---|---|---|---|")
	for _, c := range fillCases()[:3] {
		var m Matches
		m.fill(1, c.input, c.startPos, fillWarp)
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
// contract against FindMatchesPar (checkFill), or a launch over its arrays
// costs other than one over Precompute's on some startPos slab
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
		if d := checkFill(fillCase{"fuzz", data, sp}, 2); d != "" {
			t.Fatal(d)
		}
		if len(data) > 0 {
			checkFilledLaunches(t, data, sp)
		}
	})
}

// TestFillAllocs pins a warm Fill to zero heap allocations per batch at
// one, two and four lanes.
func TestFillAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	input := textLike(256<<10, 22)
	startPos := rabin.NewChunker().Boundaries(input)
	var m Matches
	for _, lanes := range []int{1, 2, 4} {
		for i := 0; i < 3; i++ {
			m.fill(lanes, input, startPos, fillWarp)
		}
		if allocs := testing.AllocsPerRun(10, func() { m.fill(lanes, input, startPos, fillWarp) }); allocs != 0 {
			t.Fatalf("Fill at %d lanes allocates %v per batch, want 0", lanes, allocs)
		}
	}
}

// BenchmarkFill prices the warp-exact fill against the all-positions matcher
// it replaces on the GPU path, one lane, over each paper batch.
func BenchmarkFill(b *testing.B) {
	for _, c := range fillCases()[:3] {
		ml, mo := make([]int32, len(c.input)), make([]int32, len(c.input))
		b.Run(c.name+"/all-positions", func(b *testing.B) {
			b.SetBytes(int64(len(c.input)))
			for i := 0; i < b.N; i++ {
				FindMatchesPar(1, c.input, c.startPos, ml, mo)
			}
		})
		b.Run(c.name+"/fill", func(b *testing.B) {
			var m Matches
			b.SetBytes(int64(len(c.input)))
			for i := 0; i < b.N; i++ {
				m.fill(1, c.input, c.startPos, fillWarp)
			}
		})
	}
}
