package rabin

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Window is a sequential rolling fingerprint over the last WindowSize bytes:
// one chain through a ring buffer, the shape the chunker had before its
// candidate scan and the reference the scan is held to.
type Window struct {
	t   *Table
	fp  uint64
	win [WindowSize]byte
	pos int
}

// NewWindow creates an empty rolling window using the default polynomial.
func NewWindow() *Window { return &Window{t: defaultTable} }

// Reset clears the window state.
func (w *Window) Reset() {
	w.fp = 0
	w.pos = 0
	w.win = [WindowSize]byte{}
}

// Roll slides the window one byte forward and returns the new fingerprint.
func (w *Window) Roll(b byte) uint64 {
	out := w.win[w.pos]
	w.win[w.pos] = b
	w.pos = (w.pos + 1) % WindowSize
	w.fp ^= w.t.outT[out]
	top := byte(w.fp >> w.t.shift)
	w.fp = ((w.fp << 8) | uint64(b)) ^ w.t.modT[top]
	return w.fp
}

// referenceBoundaries is the sequential chunker: one Window rolled over
// every byte and reset at every cut.
func referenceBoundaries(c *Chunker, data []byte) []int32 {
	if len(data) == 0 {
		return nil
	}
	mask := (uint64(1) << c.AvgBits) - 1
	magic := c.Magic & mask
	dst := []int32{0}
	w := Window{t: c.Table}
	blockStart := 0
	for i := 0; i < len(data); i++ {
		fp := w.Roll(data[i])
		size := i - blockStart + 1
		if size < c.Min {
			continue
		}
		if fp&mask == magic || size >= c.Max {
			if i+1 < len(data) {
				dst = append(dst, int32(i+1))
				blockStart = i + 1
				w.Reset()
			}
		}
	}
	return dst
}

// naiveFingerprint computes the window fingerprint by long division — the
// definition Roll must agree with.
func naiveFingerprint(window []byte, poly uint64) uint64 {
	var fp uint64
	d := deg(poly)
	for _, b := range window {
		for bit := 7; bit >= 0; bit-- {
			fp <<= 1
			if b&(1<<uint(bit)) != 0 {
				fp |= 1
			}
			if fp&(1<<uint(d)) != 0 {
				fp ^= poly
			}
		}
	}
	return fp
}

func TestRollMatchesLongDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 500)
	rng.Read(data)
	w := NewWindow()
	for i := range data {
		got := w.Roll(data[i])
		// Reference: fingerprint of the last WindowSize bytes (zero-padded
		// at the front for the warm-up phase).
		win := make([]byte, WindowSize)
		lo := i + 1 - WindowSize
		for j := 0; j < WindowSize; j++ {
			src := lo + j
			if src >= 0 {
				win[j] = data[src]
			}
		}
		want := naiveFingerprint(win, DefaultPoly)
		if got != want {
			t.Fatalf("byte %d: Roll fp = %#x, long division = %#x", i, got, want)
		}
	}
}

func TestFingerprintDependsOnlyOnWindow(t *testing.T) {
	// Two streams with different prefixes but the same last WindowSize
	// bytes must converge to the same fingerprint — the property that makes
	// content-defined chunking shift-resistant.
	tail := make([]byte, WindowSize)
	rand.New(rand.NewSource(5)).Read(tail)

	roll := func(prefix []byte) uint64 {
		w := NewWindow()
		for _, b := range prefix {
			w.Roll(b)
		}
		var fp uint64
		for _, b := range tail {
			fp = w.Roll(b)
		}
		return fp
	}
	a := roll([]byte("completely different prefix data here"))
	b := roll(bytes.Repeat([]byte{0xAB}, 101))
	if a != b {
		t.Errorf("fingerprints differ (%#x vs %#x) despite identical windows", a, b)
	}
}

func TestChunkerBoundariesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 256*1024)
	rng.Read(data)
	c := NewChunker()
	starts := c.Boundaries(data)
	if len(starts) == 0 || starts[0] != 0 {
		t.Fatalf("first boundary must be 0, got %v", starts[:min(3, len(starts))])
	}
	for i := 1; i < len(starts); i++ {
		size := int(starts[i] - starts[i-1])
		if size < c.Min {
			t.Errorf("block %d size %d below Min %d", i-1, size, c.Min)
		}
		if size > c.Max {
			t.Errorf("block %d size %d above Max %d", i-1, size, c.Max)
		}
	}
	// Expected block size ~2^11: on 256 KiB expect roughly 128 blocks;
	// accept a broad band.
	if n := len(starts); n < 40 || n > 400 {
		t.Errorf("got %d blocks on 256 KiB with 2 KiB target — chunking degenerate", n)
	}
}

func TestChunkerDeterministic(t *testing.T) {
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(3)).Read(data)
	c := NewChunker()
	a := c.Boundaries(data)
	b := c.Boundaries(data)
	if len(a) != len(b) {
		t.Fatal("boundary count differs across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("boundaries differ across runs")
		}
	}
}

func TestChunkerShiftResistance(t *testing.T) {
	// Insert bytes near the front: boundaries after the insertion point
	// must re-align (the dedup-enabling property). Fixed-size chunking
	// would misalign every block.
	base := make([]byte, 128*1024)
	rand.New(rand.NewSource(11)).Read(base)
	shifted := append(append([]byte{}, []byte("INSERTED-PREFIX-BYTES")...), base...)

	c := NewChunker()
	a := c.Split(base)
	b := c.Split(shifted)
	// Count identical blocks (by content) between the two chunkings.
	seen := make(map[string]bool)
	for _, blk := range a {
		seen[string(blk)] = true
	}
	common := 0
	for _, blk := range b {
		if seen[string(blk)] {
			common++
		}
	}
	if common < len(a)/2 {
		t.Errorf("only %d of %d blocks survived a prefix insertion; content-defined chunking should preserve most", common, len(a))
	}
}

func TestSplitReassembles(t *testing.T) {
	data := make([]byte, 100_000)
	rand.New(rand.NewSource(13)).Read(data)
	blocks := NewChunker().Split(data)
	var re []byte
	for _, b := range blocks {
		re = append(re, b...)
	}
	if !bytes.Equal(re, data) {
		t.Fatal("Split blocks do not reassemble to the input")
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	c := NewChunker()
	if got := c.Boundaries(nil); got != nil {
		t.Errorf("Boundaries(nil) = %v, want nil", got)
	}
	if got := c.Boundaries([]byte{1, 2, 3}); len(got) != 1 || got[0] != 0 {
		t.Errorf("tiny input boundaries = %v, want [0]", got)
	}
	blocks := c.Split([]byte{1, 2, 3})
	if len(blocks) != 1 || !bytes.Equal(blocks[0], []byte{1, 2, 3}) {
		t.Errorf("tiny Split = %v", blocks)
	}
}

func TestBadPolynomialPanics(t *testing.T) {
	for _, p := range []uint64{0, 1, 0x80} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%#x) should panic", p)
				}
			}()
			NewTable(p)
		}()
	}
}

// Property: Split always reassembles and every block respects Min/Max
// (except the final block, which may be short).
func TestChunkerProperty(t *testing.T) {
	f := func(seed int64, sizeSeed uint16) bool {
		size := int(sizeSeed)%50000 + 1
		data := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(data)
		c := NewChunker()
		blocks := c.Split(data)
		var total int
		for i, b := range blocks {
			if i < len(blocks)-1 && (len(b) < c.Min || len(b) > c.Max) {
				return false
			}
			total += len(b)
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: rolling is translation-invariant — the fingerprint after
// rolling a window depends only on those WindowSize bytes.
func TestWindowOnlyProperty(t *testing.T) {
	f := func(prefixA, prefixB []byte, tailSeed int64) bool {
		tail := make([]byte, WindowSize)
		rand.New(rand.NewSource(tailSeed)).Read(tail)
		roll := func(prefix []byte) uint64 {
			w := NewWindow()
			for _, b := range prefix {
				w.Roll(b)
			}
			var fp uint64
			for _, b := range tail {
				fp = w.Roll(b)
			}
			return fp
		}
		return roll(prefixA) == roll(prefixB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRoll(b *testing.B) {
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(1)).Read(data)
	w := NewWindow()
	b.SetBytes(1)
	for i := 0; i < b.N; i++ {
		w.Roll(data[i&(1<<16-1)])
	}
}

func BenchmarkChunk1MB(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	c := NewChunker()
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		c.Boundaries(data)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
