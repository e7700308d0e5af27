package rabin

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"streamgpu/internal/workload"
)

// chunkCase is one named input of the equivalence table; the same set seeds
// FuzzBoundariesEquivalence.
type chunkCase struct {
	name string
	data []byte
	c    Chunker
}

// checkBoundaries asserts AppendBoundaries returns exactly the sequential
// reference's boundaries, appended after an untouched prefix. It returns
// false instead of failing so the fuzz target can report the failing input.
func checkBoundaries(t testing.TB, name string, c *Chunker, data []byte) bool {
	t.Helper()
	want := referenceBoundaries(c, data)
	got := c.AppendBoundaries([]int32{-7}, data)
	if got[0] != -7 {
		t.Errorf("%s: AppendBoundaries overwrote dst's prefix", name)
		return false
	}
	got = got[1:]
	if len(got) != len(want) {
		t.Errorf("%s (len %d): %d boundaries, reference %d (first difference at %d)", name, len(data), len(got), len(want), firstDiff(got, want))
		return false
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Errorf("%s (len %d): boundary %d = %d, reference %d", name, len(data), i, got[i], want[i])
		return false
	}
	return true
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []int32) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// fingerprintOf is the fingerprint of a full window.
func fingerprintOf(window []byte) uint64 {
	w := NewWindow()
	var fp uint64
	for _, b := range window {
		fp = w.Roll(b)
	}
	return fp
}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// chunkCases lists the inputs and chunker settings the candidate scan can get
// wrong: every input length class (empty, below a window, below Min, below
// one round, one round exactly and either side, several rounds, whole and
// odd-length batches), cuts planted on either side of every chain seam,
// inputs on which every offset is a candidate, and inputs cut only by Max.
func chunkCases() []chunkCase {
	def := *NewChunker()
	var cases []chunkCase
	sizes := []int{0, 1, WindowSize - 1, WindowSize, WindowSize + 1, 4*WindowSize - 1,
		def.Min - 1, def.Min, def.Min + 1, 1000,
		chainSpan + WindowSize, roundSize + WindowSize - 1, roundSize + WindowSize, roundSize + WindowSize + 1,
		2*roundSize + 7, 1 << 20, 1<<20 + 17}
	for _, kind := range []workload.Kind{workload.Silesia, workload.Large, workload.Linux} {
		piece := workload.Generate(workload.Spec{Kind: kind, Size: 1<<20 + 17, Seed: 5})
		for _, n := range sizes {
			cases = append(cases, chunkCase{fmt.Sprintf("%v/%d", kind, n), piece[:n], def})
		}
	}

	// A window planted to end exactly on, or within a window of, each chain
	// seam of three rounds: the candidate there is decided by the chain's
	// priming or by its first or last roll.
	window := randomBytes(WindowSize, 41)
	planted := def
	planted.Magic = fingerprintOf(window)
	for k := 1; k < 3*chains; k++ {
		for _, d := range []int{-WindowSize - 1, -WindowSize, -1, 0, 1, WindowSize - 1, WindowSize} {
			data := randomBytes(3*roundSize+100, int64(k))
			end := WindowSize + k*chainSpan + d
			copy(data[end-WindowSize:end], window)
			cases = append(cases, chunkCase{fmt.Sprintf("seam-%d%+d", k, d), data, planted})
		}
	}

	// Constant runs whose fingerprint hits Magic: every offset is a
	// candidate, so every block is exactly Min long.
	run := bytes.Repeat([]byte{0xAB}, 1<<20)
	everyAB := def
	everyAB.Magic = fingerprintOf(run[:WindowSize])
	cases = append(cases, chunkCase{"run-AB-every-candidate", run, everyAB})
	zeros := make([]byte, 1<<20)
	everyZero := def
	everyZero.Magic = 0
	cases = append(cases, chunkCase{"zeros-every-candidate", zeros, everyZero})

	// Inputs cut only, or mostly, by Max: all-zero data never matches the
	// default Magic, and random data under a rare Magic or a small Max.
	cases = append(cases, chunkCase{"zeros-max-cuts", zeros, def})
	rare := def
	rare.AvgBits, rare.Max = 20, 1000
	cases = append(cases, chunkCase{"random-rare-magic", randomBytes(200_000, 43), rare})
	small := def
	small.Max = 300
	cases = append(cases, chunkCase{"random-max-300", randomBytes(50_000, 44), small})
	below := def
	below.Max = 100 // below Min: every block is Min long
	cases = append(cases, chunkCase{"random-max-below-min", randomBytes(20_000, 45), below})
	tight := def
	tight.Min, tight.AvgBits = WindowSize, 3
	cases = append(cases, chunkCase{"random-min-window-dense", randomBytes(3*roundSize+5, 46), tight})
	return cases
}

// TestBoundariesEquivalence holds the candidate scan to the sequential
// reference on every case of the table.
func TestBoundariesEquivalence(t *testing.T) {
	for _, tc := range chunkCases() {
		checkBoundaries(t, tc.name, &tc.c, tc.data)
	}
}

func TestChunkerMinBelowWindowPanics(t *testing.T) {
	c := NewChunker()
	c.Min = WindowSize - 1
	defer func() {
		if recover() == nil {
			t.Error("AppendBoundaries with Min < WindowSize should panic")
		}
	}()
	c.AppendBoundaries(nil, make([]byte, 100))
}

// fuzzMaxInput bounds fuzz inputs: large enough for two full rounds and a
// slid-back last one, small enough that the reference stays cheap.
const fuzzMaxInput = 3 * roundSize

// FuzzBoundariesEquivalence searches for an input and chunker settings on
// which AppendBoundaries and the sequential reference disagree. The table's
// cases seed it, cut to fuzzMaxInput.
func FuzzBoundariesEquivalence(f *testing.F) {
	for _, tc := range chunkCases() {
		f.Add(tc.data[:min(len(tc.data), fuzzMaxInput)], uint8(tc.c.AvgBits), uint16(tc.c.Min), uint16(tc.c.Max), tc.c.Magic)
	}
	f.Fuzz(func(t *testing.T, data []byte, avgBits uint8, minSize, maxSize uint16, magic uint64) {
		if len(data) > fuzzMaxInput {
			data = data[:fuzzMaxInput]
		}
		c := &Chunker{Table: defaultTable, AvgBits: uint(avgBits % 24), Min: max(WindowSize, int(minSize)), Max: int(maxSize), Magic: magic}
		checkBoundaries(t, "fuzz", c, data)
	})
}
