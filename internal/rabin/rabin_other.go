//go:build !amd64

package rabin

// hasGFNI is false: only amd64 has the GFNI candidate kernel.
func hasGFNI() bool { return false }

// scanWords is scanShort: there is no kernel to run.
func (t *Table) scanWords(bm *[roundWords]uint64, w []byte, mask, magic uint64) {
	t.scanShort(bm, w, mask, magic)
}
