package rabin

import "streamgpu/internal/cpuid"

// gfniWords sets bm[i] to the candidate bits of offsets 64i…64i+63 for each
// of the n words, window by window as scanShort decides them, reading
// w[:64n+WindowSize-1] (rabin_amd64.s). aff is Table.affine; mask and magic
// have at most 16 bits.
//
//go:noescape
func gfniWords(bm *uint64, w *byte, n int, aff *[WindowSize][2]uint64, mask, magic uint64)

// hasGFNI reports whether gfniWords can run: CPUID reports GFNI, AVX-512F
// and AVX-512BW (the byte-lane opmask tests and the 64-bit KMOVQ), and the
// OS saves the AVX-512 state (cpuid.AVX512).
func hasGFNI() bool {
	const avx512f, avx512bw, gfni = 1 << 16, 1 << 30, 1 << 8
	ebx7, ecx7, ok := cpuid.AVX512()
	return ok && ebx7&(avx512f|avx512bw) == avx512f|avx512bw && ecx7&gfni != 0
}

// scanWords is scanShort on the GFNI kernel, for len(w) >= WindowSize+64:
// it decides the offsets in whole words, the last one slid back to end on
// the last offset; the offsets it decides twice get the same bit twice.
func (t *Table) scanWords(bm *[roundWords]uint64, w []byte, mask, magic uint64) {
	n := len(w) - WindowSize
	gfniWords(&bm[0], &w[0], n/64, &t.affine, mask, magic)
	if s := n - 64; s&63 != 0 {
		var last uint64
		gfniWords(&last, &w[s], 1, &t.affine, mask, magic)
		bm[s>>6] |= last << (s & 63)
		bm[s>>6+1] |= last >> (64 - s&63)
	}
}
