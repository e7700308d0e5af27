package sha1x

import (
	"bytes"
	crypto "crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
)

// Known-answer tests from FIPS 180-4 / RFC 3174.
func TestKnownVectors(t *testing.T) {
	vectors := []struct{ in, want string }{
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
		{"The quick brown fox jumps over the lazy dog", "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"},
	}
	for _, v := range vectors {
		got := fmt.Sprintf("%x", Sum20([]byte(v.in)))
		if got != v.want {
			t.Errorf("Sum20(%q) = %s, want %s", v.in, got, v.want)
		}
	}
}

// TestInterfaceSizes pins the digest and block lengths the archive format
// (20-byte hashes) and the kernel's cost model (64-byte compressions) assume.
func TestInterfaceSizes(t *testing.T) {
	if Size != 20 || BlockSize != 64 {
		t.Errorf("Size=%d BlockSize=%d", Size, BlockSize)
	}
}

// Property: our implementation agrees with crypto/sha1 on random inputs of
// every length, including the padding boundary cases around 55/56/64 bytes.
func TestAgainstStdlibProperty(t *testing.T) {
	f := func(data []byte) bool {
		want := crypto.Sum(data)
		got := Sum20(data)
		return got == [20]byte(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Deterministic sweep over the padding boundary.
	for n := 0; n <= 130; n++ {
		data := bytes.Repeat([]byte{byte(n)}, n)
		want := crypto.Sum(data)
		if got := Sum20(data); got != [20]byte(want) {
			t.Errorf("length %d: digest mismatch", n)
		}
	}
}

// Property: SumBatch agrees with crypto/sha1 block by block over random
// block layouts — empty blocks, one-byte blocks, blocks straddling the
// 55/56/64-byte padding edges and whole-batch blocks included.
func TestSumBatchAgainstStdlibProperty(t *testing.T) {
	f := func(seed int64, size uint16, cuts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(size)%9000)
		rng.Read(data)
		startPos := []int32{0}
		for k := 0; k < int(cuts)%40; k++ {
			last := int(startPos[len(startPos)-1])
			step := []int{0, 1, 55, 56, 63, 64, 65, rng.Intn(300)}[rng.Intn(8)]
			if last+step > len(data) {
				break
			}
			startPos = append(startPos, int32(last+step))
		}
		dst := make([][Size]byte, len(startPos))
		SumBatch(data, startPos, dst)
		for i, lo := range startPos {
			hi := len(data)
			if i+1 < len(startPos) {
				hi = int(startPos[i+1])
			}
			if dst[i] != crypto.Sum(data[lo:hi]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
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
