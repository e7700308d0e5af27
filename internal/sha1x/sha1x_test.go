package sha1x

import (
	"bytes"
	crypto "crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
)

// Known-answer tests from FIPS 180-4 / RFC 3174, the last the one million
// 'a' vector.
func TestKnownVectors(t *testing.T) {
	vectors := []struct{ in, want string }{
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
		{"The quick brown fox jumps over the lazy dog", "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"},
		{strings.Repeat("a", 1e6), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
	}
	forEachPath(t, func(t *testing.T) {
		for _, v := range vectors {
			got := fmt.Sprintf("%x", Sum20([]byte(v.in)))
			if got != v.want {
				t.Errorf("Sum20(%.20q, %d bytes) = %s, want %s", v.in, len(v.in), got, v.want)
			}
		}
	})
}

// TestInterfaceSizes pins the digest and block lengths the archive format
// (20-byte hashes) and the kernel's cost model (64-byte compressions) assume.
func TestInterfaceSizes(t *testing.T) {
	if Size != 20 || BlockSize != 64 {
		t.Errorf("Size=%d BlockSize=%d", Size, BlockSize)
	}
}

// Property: our implementation agrees with crypto/sha1 on random inputs of
// every length, including the padding boundary cases around 55/56/64 bytes,
// and at every byte offset 0-7 of a larger buffer (unaligned loads) for every
// length up to three blocks.
func TestAgainstStdlibProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, 8+200)
	rng.Read(buf)
	forEachPath(t, func(t *testing.T) {
		f := func(data []byte) bool {
			return Sum20(data) == crypto.Sum(data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Error(err)
		}
		// Deterministic sweep over the padding boundary.
		for n := 0; n <= 130; n++ {
			data := bytes.Repeat([]byte{byte(n)}, n)
			if Sum20(data) != crypto.Sum(data) {
				t.Errorf("length %d: digest mismatch", n)
			}
		}
		for off := 0; off < 8; off++ {
			for n := 0; n <= 200; n++ {
				data := buf[off : off+n]
				if Sum20(data) != crypto.Sum(data) {
					t.Errorf("offset %d length %d: digest mismatch", off, n)
				}
			}
		}
	})
}

// FuzzSum20Equivalence searches for an input on which Sum20 and crypto/sha1
// disagree. Sum20 runs the path the host's CPU selects.
func FuzzSum20Equivalence(f *testing.F) {
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 1000} {
		f.Add(bytes.Repeat([]byte{byte(n)}, n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := Sum20(data), crypto.Sum(data); got != want {
			t.Fatalf("%d bytes: Sum20 %x, crypto/sha1 %x", len(data), got, want)
		}
	})
}

// edgeLayouts are block lengths that reach the lane loop's refill and
// drain: more than 16 lanes' worth of blocks of 64 bytes or more with short
// ones between them, tails of 0, 55, 56 and 63 bytes past a whole block,
// batches of exactly 16 and 17 blocks, and one 16 KiB block among short
// ones.
var edgeLayouts = map[string][]int{
	"interleaved": {64, 0, 128, 1, 2048, 55, 64, 63, 700, 56, 640, 0, 65, 1, 119, 3000, 64, 64, 63, 200,
		1024, 5, 64, 4096, 0, 130, 64, 9, 192, 300, 64, 63, 2047, 64, 1},
	"tails":     {64, 119, 120, 127, 128, 183, 184, 191, 1024, 1079, 1080, 1087, 4096, 4151, 4152, 4159, 64, 55, 56, 63},
	"exactly16": {64, 128, 200, 300, 640, 1000, 64, 64, 2048, 119, 120, 127, 4096, 700, 65, 191},
	"exactly17": {64, 128, 200, 300, 640, 1000, 64, 64, 2048, 119, 120, 127, 4096, 700, 65, 191, 16 << 10},
	"one16KiB":  {1, 10, 63, 55, 0, 16 << 10, 56, 2, 63, 0, 1},
}

// checkBatch fails t at the first block of the batch whose SumBatch digest
// differs from crypto/sha1's.
func checkBatch(t *testing.T, data []byte, startPos []int32) {
	t.Helper()
	dst := make([][Size]byte, len(startPos))
	SumBatch(data, startPos, dst)
	for i, lo := range startPos {
		hi := len(data)
		if i+1 < len(startPos) {
			hi = int(startPos[i+1])
		}
		if want := crypto.Sum(data[lo:hi]); dst[i] != want {
			t.Errorf("block %d of %d, [%d, %d): SumBatch %x, crypto/sha1 %x", i, len(startPos), lo, hi, dst[i], want)
			return
		}
	}
}

// batchOf lays blocks of the given lengths end to end over data drawn from
// rng.
func batchOf(rng *rand.Rand, lens []int) (data []byte, startPos []int32) {
	for _, n := range lens {
		startPos = append(startPos, int32(len(data)))
		data = append(data, make([]byte, n)...)
	}
	rng.Read(data)
	return data, startPos
}

// Property: SumBatch agrees with crypto/sha1 block by block over the edge
// layouts and over random ones: up to 48 blocks, each empty, short, or whole
// blocks plus a tail at or near the 55/56/64-byte padding edges.
func TestSumBatchAgainstStdlibProperty(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		for name, lens := range edgeLayouts {
			t.Run(name, func(t *testing.T) {
				data, startPos := batchOf(rand.New(rand.NewSource(int64(len(lens)))), lens)
				checkBatch(t, data, startPos)
			})
		}
		f := func(seed int64, blocks uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			lens := make([]int, 1+int(blocks)%48)
			for i := range lens {
				tail := []int{0, 1, 55, 56, 63, rng.Intn(BlockSize)}[rng.Intn(6)]
				if rng.Intn(3) > 0 {
					tail += BlockSize * (1 + rng.Intn(40))
				}
				lens[i] = tail
			}
			data, startPos := batchOf(rng, lens)
			checkBatch(t, data, startPos)
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Error(err)
		}
	})
}

// layoutOf decodes a fuzz input into a batch. in[0] mod 64 is a block
// count, then come that many little-endian 16-bit block lengths, each taken
// mod 16 KiB+1 (the chunker's Max), so a batch is at most 1 MiB; the rest
// of the input is tiled over the batch. An input without lengths is one
// block.
func layoutOf(in []byte) (data []byte, startPos []int32) {
	if len(in) == 0 {
		return nil, []int32{0}
	}
	n := min(int(in[0])%64, (len(in)-1)/2)
	rest := in[1+2*n:]
	if n == 0 {
		return rest, []int32{0}
	}
	for i := range n {
		startPos = append(startPos, int32(len(data)))
		data = append(data, make([]byte, binary.LittleEndian.Uint16(in[1+2*i:])%(16<<10+1))...)
	}
	if len(rest) > 0 {
		for i := range data {
			data[i] = rest[i%len(rest)]
		}
	}
	return data, startPos
}

// FuzzSumBatchEquivalence searches for a batch on which SumBatch and
// crypto/sha1 disagree on some block. SumBatch runs the path the host's
// CPU selects (the lane loop where CPUID reports AVX-512 and SHA-NI).
func FuzzSumBatchEquivalence(f *testing.F) {
	for _, lens := range edgeLayouts {
		in := []byte{byte(len(lens))}
		for _, n := range lens {
			in = binary.LittleEndian.AppendUint16(in, uint16(n))
		}
		f.Add(append(in, "the rest is tiled"...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		data, startPos := layoutOf(in)
		checkBatch(t, data, startPos)
	})
}

func TestKernelHashesBlocks(t *testing.T) {
	// Batch of 5 blocks with irregular boundaries; each digest must equal
	// the host hash of that block.
	rng := rand.New(rand.NewSource(7))
	batch := make([]byte, 4096)
	rng.Read(batch)
	startPos := []int32{0, 100, 101, 1500, 4000}

	sim := des.New()
	dev := gpu.NewDevice(sim, gpu.TitanXPSpec(), 0)
	out := gpu.NewPinnedBuf(int64(len(startPos) * Size))
	sim.Spawn("host", func(p *des.Proc) {
		dIn := mustMalloc(dev, int64(len(batch)))
		defer dIn.Free()
		dSp := mustMalloc(dev, int64(len(startPos)*4))
		defer dSp.Free()
		dOut := mustMalloc(dev, int64(len(startPos)*Size))
		defer dOut.Free()
		hIn := gpu.WrapHost(batch)
		spBytes := make([]byte, len(startPos)*4)
		PutStartPos(spBytes, startPos)
		st := dev.NewStream("")
		evs := []*des.Event{
			st.CopyH2D(p, dIn, 0, hIn, 0, int64(len(batch))),
			st.CopyH2D(p, dSp, 0, gpu.WrapHost(spBytes), 0, int64(len(spBytes))),
			st.Launch(p, Kernel.Bind(dIn, dSp, len(startPos), len(batch), dOut), gpu.Grid1D(len(startPos), 64)),
			st.CopyD2H(p, out, 0, dOut, 0, int64(len(out.Data))),
		}
		if err := gpu.WaitErr(p, evs...); err != nil {
			panic(err)
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range startPos {
		lo := int(startPos[i])
		hi := len(batch)
		if i+1 < len(startPos) {
			hi = int(startPos[i+1])
		}
		want := crypto.Sum(batch[lo:hi])
		got := out.Data[i*Size : (i+1)*Size]
		if !bytes.Equal(got, want[:]) {
			t.Errorf("block %d [%d:%d): kernel digest mismatch", i, lo, hi)
		}
	}
}

func TestPutStartPosRoundTrip(t *testing.T) {
	sp := []int32{0, 5, 1 << 20, 1<<31 - 1}
	buf := make([]byte, len(sp)*4)
	PutStartPos(buf, sp)
	for i, want := range sp {
		if got := int32(binary.LittleEndian.Uint32(buf[i*4:])); got != want {
			t.Errorf("startPos[%d] = %d, want %d", i, got, want)
		}
	}
}

func BenchmarkSum1K(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Sum20(data)
	}
}

func BenchmarkSum64K(b *testing.B) {
	data := make([]byte, 64*1024)
	b.SetBytes(64 * 1024)
	for i := 0; i < b.N; i++ {
		Sum20(data)
	}
}

// mustMalloc allocates or panics; inside a des process the panic becomes a
// Sim.Run error, which the tests treat as fatal.
func mustMalloc(d *gpu.Device, n int64) *gpu.Buf {
	b, err := d.Malloc(n)
	if err != nil {
		panic(err)
	}
	return b
}
