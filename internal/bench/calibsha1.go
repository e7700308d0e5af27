package bench

import "encoding/binary"

// calibSHA1 is the host suite's machine-speed probe: a plain scalar SHA-1
// (FIPS 180-4), frozen here so that calib measures the machine and nothing
// else. No normalizer may depend on a kernel the repository optimizes: every
// baseline entry is scaled by fresh.Calib/base.Calib, so speeding up the
// probed code would read as a regression of every entry. This is the
// compression loop internal/sha1x ran before it moved to crypto/sha1 and
// then to the SHA extensions; no production path runs anything like it now.
// It stays as it was so that calib is continuous with the baselines recorded
// on it. Do not optimize it; a new probe needs a re-recorded
// BENCH_baseline.json.
func calibSHA1(data []byte) [20]byte {
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	n := len(data)
	for len(data) >= 64 {
		calibBlock(&h, data[:64])
		data = data[64:]
	}
	// Final padded block(s).
	var tail [128]byte
	t := copy(tail[:], data)
	tail[t] = 0x80
	tl := 64
	if t+9 > 64 {
		tl = 128
	}
	binary.BigEndian.PutUint64(tail[tl-8:], uint64(n)<<3)
	for i := 0; i < tl; i += 64 {
		calibBlock(&h, tail[i:i+64])
	}
	var out [20]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// calibBlock runs the 80-round compression function over one 64-byte chunk.
func calibBlock(h *[5]uint32, p []byte) {
	var w [80]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(p[i*4:])
	}
	for i := 16; i < 80; i++ {
		v := w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]
		w[i] = v<<1 | v>>31
	}
	a, b, c, d, e := h[0], h[1], h[2], h[3], h[4]
	for i := 0; i < 80; i++ {
		var f, k uint32
		switch {
		case i < 20:
			f = (b & c) | (^b & d)
			k = 0x5A827999
		case i < 40:
			f = b ^ c ^ d
			k = 0x6ED9EBA1
		case i < 60:
			f = (b & c) | (b & d) | (c & d)
			k = 0x8F1BBCDC
		default:
			f = b ^ c ^ d
			k = 0xCA62C1D6
		}
		t := a<<5 | a>>27
		t += f + e + k + w[i]
		e, d, c, b, a = d, c, b<<30|b>>2, a, t
	}
	h[0] += a
	h[1] += b
	h[2] += c
	h[3] += d
	h[4] += e
}
