package lzss

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
	"streamgpu/internal/sha1x"
)

// textLike produces compressible pseudo-text.
func textLike(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"stream", "parallel", "the", "kernel", "batch", "pipeline",
		"memory", "gpu", "and", "of", "processing", "data", "with", "for"}
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteByte(' ')
	}
	return b.Bytes()[:n]
}

func TestCompressRoundTripText(t *testing.T) {
	data := textLike(50_000, 1)
	comp := Compress(data)
	if len(comp) >= len(data) {
		t.Errorf("text should compress: %d -> %d", len(data), len(comp))
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestCompressRoundTripRandom(t *testing.T) {
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(2)).Read(data)
	got, err := Decompress(Compress(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch on random data")
	}
}

func TestCompressEdgeCases(t *testing.T) {
	cases := [][]byte{
		{},
		{0},
		{1, 2, 3},
		bytes.Repeat([]byte{'a'}, 1),
		bytes.Repeat([]byte{'a'}, 2),
		bytes.Repeat([]byte{'a'}, 3),
		bytes.Repeat([]byte{'a'}, 100),
		bytes.Repeat([]byte{'a'}, WindowSize+100),
		[]byte(strings.Repeat("ab", 5000)),
	}
	for i, data := range cases {
		got, err := Decompress(Compress(data))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("case %d: round trip mismatch (len %d)", i, len(data))
		}
	}
}

func TestRunsCompressWell(t *testing.T) {
	data := bytes.Repeat([]byte{'x'}, 10_000)
	comp := Compress(data)
	// No-overlap matches cap at MaxMatch bytes per 2-byte token; expect
	// roughly (2+flag)/18 ≈ 12% plus warm-up.
	if len(comp) > len(data)/4 {
		t.Errorf("run of 10000 compressed to %d, want <= %d", len(comp), len(data)/4)
	}
	got, err := Decompress(comp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal("run round trip failed")
	}
}

func TestDecompressCorruptInputs(t *testing.T) {
	valid := Compress(textLike(1000, 3))
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": {0xFF},
		"truncated body":   valid[:len(valid)/2],
		"length only":      {10},
	}
	for name, data := range cases {
		if _, err := Decompress(data); err == nil {
			t.Errorf("%s: Decompress should fail", name)
		}
	}
}

func TestDecompressBadDistance(t *testing.T) {
	// Handcraft: length 5, one pair token with distance 100 at position 0.
	comp := []byte{5, 0x01, 0x06, 0x30} // uvarint 5, flags=1, pair d=100? craft below
	// pair value: d-1=99 (<<4) | len-3=0 → v = 99<<4 = 0x630
	if _, err := Decompress(comp); err == nil {
		t.Error("pair referencing before start must fail")
	}
}

func TestFindMatchesEquivalenceStructured(t *testing.T) {
	// Brute force and hash chains must agree exactly, including the
	// nearest-longest tie-break, across data shapes.
	shapes := map[string][]byte{
		"text":     textLike(20_000, 4),
		"random":   randomBytes(20_000, 5),
		"zeros":    make([]byte, 8_000),
		"period7":  periodic(8_000, 7),
		"period19": periodic(8_000, 19),
		"mixed":    append(textLike(5_000, 6), make([]byte, 5_000)...),
	}
	for name, data := range shapes {
		t.Run(name, func(t *testing.T) {
			startPos := []int32{0, int32(len(data) / 3), int32(len(data) / 2)}
			la, oa := make([]int32, len(data)), make([]int32, len(data))
			lb, ob := make([]int32, len(data)), make([]int32, len(data))
			FindMatchesRef(data, startPos, la, oa)
			FindMatches(data, startPos, lb, ob)
			for i := range data {
				if la[i] != lb[i] || oa[i] != ob[i] {
					t.Fatalf("pos %d: ref=(%d,%d) fast=(%d,%d)", i, la[i], oa[i], lb[i], ob[i])
				}
			}
		})
	}
}

func TestFindMatchesRespectsBlockBoundaries(t *testing.T) {
	// Identical content in two blocks: matches must never cross the
	// boundary (the guarantee the paper needs for block-level dedup).
	half := textLike(4_000, 7)
	data := append(append([]byte{}, half...), half...)
	startPos := []int32{0, int32(len(half))}
	ml, mo := make([]int32, len(data)), make([]int32, len(data))
	FindMatches(data, startPos, ml, mo)
	for i := len(half); i < len(data); i++ {
		if ml[i] > 0 && i-int(mo[i]) < len(half) {
			t.Fatalf("pos %d: match source %d crosses block boundary %d", i, i-int(mo[i]), len(half))
		}
	}
}

func TestEncodePerBlockRoundTrip(t *testing.T) {
	// Batch of 4 blocks; encode each block from batch-wide matches and
	// verify each decompresses to its slice.
	data := textLike(30_000, 8)
	startPos := []int32{0, 7_000, 7_100, 21_000}
	ml, mo := make([]int32, len(data)), make([]int32, len(data))
	FindMatches(data, startPos, ml, mo)
	for k := range startPos {
		lo := int(startPos[k])
		hi := blockEnd(startPos, k, len(data))
		comp := EncodeFromMatches(data, lo, hi, ml, mo)
		got, err := Decompress(comp)
		if err != nil {
			t.Fatalf("block %d: %v", k, err)
		}
		if !bytes.Equal(got, data[lo:hi]) {
			t.Fatalf("block %d: round trip mismatch", k)
		}
	}
}

func TestBruteKernelMatchesRef(t *testing.T) {
	data := textLike(6_000, 9)
	startPos := []int32{0, 2_000, 2_500}
	wantLen, wantOff := make([]int32, len(data)), make([]int32, len(data))
	FindMatchesRef(data, startPos, wantLen, wantOff)

	gotLen, gotOff := runKernel(t, BruteKernel(), data, startPos, nil)
	for i := range data {
		if gotLen[i] != wantLen[i] || gotOff[i] != wantOff[i] {
			t.Fatalf("pos %d: kernel=(%d,%d) ref=(%d,%d)", i, gotLen[i], gotOff[i], wantLen[i], wantOff[i])
		}
	}
}

func TestFastKernelMatchesBrute(t *testing.T) {
	data := textLike(6_000, 10)
	startPos := []int32{0, 1_000, 4_096}
	pre := Precompute(data, startPos)
	fastLen, fastOff := runKernel(t, FastKernel(), data, startPos, pre)
	bruteLen, bruteOff := runKernel(t, BruteKernel(), data, startPos, nil)
	for i := range data {
		if fastLen[i] != bruteLen[i] || fastOff[i] != bruteOff[i] {
			t.Fatalf("pos %d: fast=(%d,%d) brute=(%d,%d)", i, fastLen[i], fastOff[i], bruteLen[i], bruteOff[i])
		}
	}
}

func TestFastKernelCostNearBrute(t *testing.T) {
	// The fast kernel's cost model should land within 3× of the brute
	// kernel's measured cycles on text-like data.
	data := textLike(4_096, 11)
	startPos := []int32{0, 2_048}
	fast := kernelTime(t, FastKernel(), data, startPos, Precompute(data, startPos))
	brute := kernelTime(t, BruteKernel(), data, startPos, nil)
	lo, hi := brute/3, brute*3
	if fast < lo || fast > hi {
		t.Errorf("fast kernel virtual time %v outside [%v, %v] of brute %v", fast, lo, hi, brute)
	}
}

// runKernel executes a FindMatch kernel variant on the simulated GPU.
func runKernel(t *testing.T, spec *gpu.KernelSpec, data []byte, startPos []int32, pre *Matches) ([]int32, []int32) {
	t.Helper()
	ml, mo, _ := execKernel(t, spec, data, startPos, pre)
	return ml, mo
}

func kernelTime(t *testing.T, spec *gpu.KernelSpec, data []byte, startPos []int32, pre *Matches) des.Time {
	t.Helper()
	_, _, end := execKernel(t, spec, data, startPos, pre)
	return end
}

func execKernel(t *testing.T, spec *gpu.KernelSpec, data []byte, startPos []int32, pre *Matches) ([]int32, []int32, des.Time) {
	t.Helper()
	sim := des.New()
	dev := gpu.NewDevice(sim, gpu.TitanXPSpec(), 0)
	mlHost := gpu.NewPinnedBuf(int64(len(data) * 4))
	moHost := gpu.NewPinnedBuf(int64(len(data) * 4))
	sim.Spawn("host", func(p *des.Proc) {
		dIn := mustMalloc(dev, int64(len(data)))
		dSp := mustMalloc(dev, int64(len(startPos)*4))
		dMl := mustMalloc(dev, int64(len(data)*4))
		dMo := mustMalloc(dev, int64(len(data)*4))
		spBytes := make([]byte, len(startPos)*4)
		sha1x.PutStartPos(spBytes, startPos)
		st := dev.NewStream("")
		evs := []*des.Event{
			st.CopyH2D(p, dIn, 0, gpu.WrapHost(data), 0, int64(len(data))),
			st.CopyH2D(p, dSp, 0, gpu.WrapHost(spBytes), 0, int64(len(spBytes))),
		}
		args := []any{dIn, len(data), dSp, len(startPos), dMl, dMo}
		if pre != nil {
			args = append(args, pre)
		}
		evs = append(evs,
			st.Launch(p, spec.Bind(args...), gpu.Grid1D(len(data), 128)),
			st.CopyD2H(p, mlHost, 0, dMl, 0, int64(len(data)*4)),
			st.CopyD2H(p, moHost, 0, dMo, 0, int64(len(data)*4)),
		)
		if err := gpu.WaitErr(p, evs...); err != nil {
			panic(err)
		}
	})
	end, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	ml, mo := make([]int32, len(data)), make([]int32, len(data))
	for i := range ml {
		ml[i] = int32(leInt32(mlHost.Data, i))
		mo[i] = int32(leInt32(moHost.Data, i))
	}
	return ml, mo, end
}

// Property: compress/decompress is the identity on arbitrary bytes.
func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		got, err := Decompress(Compress(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: FindMatches == FindMatchesRef for random data and random block
// boundaries.
func TestMatchEquivalenceProperty(t *testing.T) {
	f := func(seed int64, sizeSeed uint16, alphaSeed uint8) bool {
		size := int(sizeSeed)%6000 + 1
		alpha := int(alphaSeed)%8 + 2 // small alphabets make many matches
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(rng.Intn(alpha))
		}
		startPos := []int32{0}
		for p := rng.Intn(500) + 1; p < size; p += rng.Intn(2000) + 1 {
			startPos = append(startPos, int32(p))
		}
		la, oa := make([]int32, size), make([]int32, size)
		lb, ob := make([]int32, size), make([]int32, size)
		FindMatchesRef(data, startPos, la, oa)
		FindMatches(data, startPos, lb, ob)
		for i := 0; i < size; i++ {
			if la[i] != lb[i] || oa[i] != ob[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: per-block encoding from batch matches always round-trips.
func TestBatchEncodeProperty(t *testing.T) {
	f := func(seed int64, sizeSeed uint16) bool {
		size := int(sizeSeed)%8000 + 10
		rng := rand.New(rand.NewSource(seed))
		data := textLike(size, seed)
		startPos := []int32{0}
		for p := rng.Intn(1000) + 1; p < size; p += rng.Intn(3000) + 1 {
			startPos = append(startPos, int32(p))
		}
		ml, mo := make([]int32, size), make([]int32, size)
		FindMatches(data, startPos, ml, mo)
		for k := range startPos {
			lo := int(startPos[k])
			hi := blockEnd(startPos, k, size)
			got, err := Decompress(EncodeFromMatches(data, lo, hi, ml, mo))
			if err != nil || !bytes.Equal(got, data[lo:hi]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func periodic(n, period int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % period)
	}
	return b
}

func BenchmarkFindMatches1MBText(b *testing.B) {
	data := textLike(1<<20, 42)
	startPos := []int32{0}
	for p := 2048; p < len(data); p += 2048 {
		startPos = append(startPos, int32(p))
	}
	ml, mo := make([]int32, len(data)), make([]int32, len(data))
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindMatches(data, startPos, ml, mo)
	}
}

func BenchmarkCompress64KB(b *testing.B) {
	data := textLike(64<<10, 43)
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		Compress(data)
	}
}

func BenchmarkDecompress64KB(b *testing.B) {
	comp := Compress(textLike(64<<10, 44))
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(comp); err != nil {
			b.Fatal(err)
		}
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
