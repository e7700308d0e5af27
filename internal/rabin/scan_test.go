package rabin

import (
	"fmt"
	"math/bits"
	"testing"

	"streamgpu/internal/workload"
)

// scans are the candidate scans the tests run: the Go chains (scanRound,
// scanShort) and the GFNI kernel (scanWords).
var scans = []struct {
	name string
	gfni bool
}{
	{"go", false},
	{"gfni", true},
}

// forEachScan runs f once on each scan of scans, skipping the GFNI kernel
// on a CPU without it.
func forEachScan(t *testing.T, f func(t *testing.T)) {
	defer func(saved bool) { gfni = saved }(gfni)
	for _, sc := range scans {
		t.Run(sc.name, func(t *testing.T) {
			if sc.gfni && !hasGFNI() {
				t.Skip("CPUID reports no GFNI, AVX-512F or AVX-512BW, or XCR0 shows the OS does not save ZMM and opmask state")
			}
			gfni = sc.gfni
			f(t)
		})
	}
}

// chainBitmap is the candidate bitmap of one chain rolled through w: bit k
// is set when the window w[k:k+WindowSize] matches magic under mask, for
// every k < len(w)-WindowSize, the offsets a scan of w decides.
func chainBitmap(t *Table, w []byte, mask, magic uint64) *[roundWords]uint64 {
	var bm [roundWords]uint64
	win := Window{t: t}
	for i, b := range w {
		fp := win.Roll(b)
		if k := i + 1 - WindowSize; k >= 0 && k < len(w)-WindowSize && fp&mask == magic {
			bm[k>>6] |= 1 << (k & 63)
		}
	}
	return &bm
}

// checkBitmap asserts c's scan of w (at most WindowSize+roundSize bytes)
// sets exactly one chain's candidate bits. It returns false instead of
// failing so the fuzz target can report the failing input.
func checkBitmap(t testing.TB, name string, c *Chunker, w []byte) bool {
	t.Helper()
	mask := (uint64(1) << c.AvgBits) - 1
	magic := c.Magic & mask
	var got [roundWords]uint64
	c.scan(&got, w, mask, magic)
	want := chainBitmap(c.Table, w, mask, magic)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s (len %d, AvgBits %d): bitmap word %d = %#016x, one chain %#016x", name, len(w), c.AvgBits, i, got[i], want[i])
			return false
		}
	}
	return true
}

// TestScanBitmap holds each scan's candidate bitmap to one chain's, bit for
// bit: boundaries cannot show a wrong candidate within Min bytes of a cut.
// The inputs decide one word fewer than the kernel's (it must not run),
// one word, one word and the slid-back last one, four words (the kernel's
// four-word step) with and without a slid-back one, and a round and one
// offset short of it, at AvgBits 0 (every offset), 1, 8 (output byte 0
// only), 11, 16 (both output bytes whole) and 17 (past the kernel: the Go
// scan). Each input is also checked with a window planted to end on bit 0
// and bit 63 of its first and last words, on the slid-back word's first
// offset and on the last offset, with Magic its fingerprint. Besides the
// default polynomial, one of degree 9 (fingerprint bits 9-15 always zero)
// and one of degree 31 run.
func TestScanBitmap(t *testing.T) {
	piece := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: WindowSize + roundSize, Seed: 7})
	window := randomBytes(WindowSize, 8)
	forEachScan(t, func(t *testing.T) {
		for _, poly := range []uint64{DefaultPoly, 0x211, 0x80000009} {
			tab := NewTable(poly)
			for _, n := range []int{63, 64, 65, 127, 128, 256, 257, 337, roundSize - 1, roundSize} {
				w := piece[:n+WindowSize]
				for _, avg := range []uint{0, 1, 8, 11, 16, 17} {
					c := Chunker{Table: tab, AvgBits: avg, Magic: 0x78}
					name := fmt.Sprintf("poly %#x", poly)
					checkBitmap(t, name, &c, w)
					c.Magic = fingerprintOf(tab, window)
					last := n - 1 - (n-1)%64
					for _, k := range []int{0, 63, last, last + 63, n - 64, n - 1} {
						if k < 0 || k >= n {
							continue
						}
						p := append([]byte(nil), w...)
						copy(p[k:], window)
						checkBitmap(t, fmt.Sprintf("%s, window at %d", name, k), &c, p)
					}
				}
			}
		}
	})
}

// affineProduct is VGF2P8AFFINEQB on one byte x: bit i is the parity of
// matrix byte 7-i AND x.
func affineProduct(m uint64, x byte) byte {
	var r byte
	for i := 0; i < 8; i++ {
		r |= byte(bits.OnesCount8(byte(m>>(8*(7-i)))&x)&1) << i
	}
	return r
}

// TestScanBitmapSingleBytes checks every byte value at every window
// position, for two polynomials: the two products of Table.affine, as
// VGF2P8AFFINEQB computes them, equal the low 16 bits of the fingerprint of
// the window holding only that byte, and each scan finds that window's
// offset (and exactly one chain's other candidates) with Magic that
// fingerprint under the 16-bit mask.
func TestScanBitmapSingleBytes(t *testing.T) {
	forEachScan(t, func(t *testing.T) {
		for _, tab := range []*Table{defaultTable, NewTable(0x211)} {
			w := make([]byte, WindowSize+64)
			for k := 0; k < WindowSize; k++ {
				for v := 0; v < 256; v++ {
					var window [WindowSize]byte
					window[k] = byte(v)
					fp := fingerprintOf(tab, window[:]) & 0xffff
					got := uint64(affineProduct(tab.affine[k][0], byte(v))) | uint64(affineProduct(tab.affine[k][1], byte(v)))<<8
					if got != fp {
						t.Fatalf("poly %#x: byte %#02x at window position %d: matrix products %#04x, fingerprint bits %#04x", tab.poly, v, k, got, fp)
					}
					// Offset 40-k's window holds w[40] at position k.
					clear(w)
					w[40] = byte(v)
					c := Chunker{Table: tab, AvgBits: 16, Magic: fp}
					if !checkBitmap(t, fmt.Sprintf("poly %#x, byte %#02x at position %d", tab.poly, v, k), &c, w) {
						return
					}
				}
			}
		}
	})
}
