package dedup

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"streamgpu/internal/pool"
	"streamgpu/internal/workload"
)

// sample returns a deterministic compressible input with duplication.
func sample(size int) []byte {
	return workload.Generate(workload.Spec{Kind: workload.Linux, Size: size, Seed: 42})
}

func TestSeqRoundTrip(t *testing.T) {
	input := sample(3 << 20)
	var arch bytes.Buffer
	st, err := CompressSeq(input, &arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.RawBytes != int64(len(input)) {
		t.Errorf("RawBytes = %d, want %d", st.RawBytes, len(input))
	}
	var out bytes.Buffer
	if err := Restore(&arch, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), input) {
		t.Fatal("restore mismatch")
	}
}

func TestDedupActuallyDeduplicates(t *testing.T) {
	// Linux-like input has heavy duplication: the archive must be much
	// smaller than input and must contain dup records.
	input := sample(4 << 20)
	var arch bytes.Buffer
	st, err := CompressSeq(input, &arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.DupBlocks == 0 {
		t.Error("no duplicate blocks found in a duplicate-heavy input")
	}
	if st.Ratio() < 2 {
		t.Errorf("compression ratio = %.2f, want >= 2 for Linux-like input", st.Ratio())
	}
	if arch.Len() >= len(input) {
		t.Errorf("archive (%d) not smaller than input (%d)", arch.Len(), len(input))
	}
}

func TestIncompressibleStoredRaw(t *testing.T) {
	input := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(input)
	var arch bytes.Buffer
	st, err := CompressSeq(input, &arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Random data: no dups, no compression win; archive ≈ input + headers.
	if st.DupBlocks != 0 {
		t.Errorf("random data produced %d dup blocks", st.DupBlocks)
	}
	if arch.Len() > len(input)+len(input)/50+64 {
		t.Errorf("raw storage overhead too high: %d vs %d", arch.Len(), len(input))
	}
	var out bytes.Buffer
	if err := Restore(&arch, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), input) {
		t.Fatal("restore mismatch on incompressible input")
	}
}

func TestSParMatchesSeqOutput(t *testing.T) {
	// The archive bytes must be identical regardless of parallelism: the
	// writer's stream-order decision makes output deterministic.
	input := sample(3 << 20)
	var seqArch, parArch bytes.Buffer
	if _, err := CompressSeq(input, &seqArch, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := CompressSPar(input, &parArch, Options{Workers: 7}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqArch.Bytes(), parArch.Bytes()) {
		t.Fatal("parallel archive differs from sequential archive")
	}
}

func TestSParRoundTripVariousWorkers(t *testing.T) {
	input := sample(2 << 20)
	for _, workers := range []int{1, 2, 8, 19} {
		var arch bytes.Buffer
		st, err := CompressSPar(input, &arch, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var out bytes.Buffer
		if err := Restore(&arch, &out); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(out.Bytes(), input) {
			t.Fatalf("workers=%d: restore mismatch", workers)
		}
		if st.UniqueBlocks+st.DupBlocks == 0 {
			t.Fatalf("workers=%d: no blocks processed", workers)
		}
	}
}

func TestFragmentCoversInput(t *testing.T) {
	input := sample(2<<20 + 12345) // not a multiple of the batch size
	var total int
	var batches int
	FragmentInto(input, DefaultBatchSize, func(b *Batch) {
		defer b.Release()
		if b.Seq != batches {
			t.Errorf("batch seq %d, want %d", b.Seq, batches)
		}
		batches++
		total += len(b.Data)
		if len(b.Data) > DefaultBatchSize {
			t.Errorf("batch %d oversize: %d", b.Seq, len(b.Data))
		}
		if len(b.Data) > 0 && (len(b.StartPos) == 0 || b.StartPos[0] != 0) {
			t.Errorf("batch %d: StartPos must begin at 0", b.Seq)
		}
	})
	if total != len(input) {
		t.Errorf("batches cover %d bytes, want %d", total, len(input))
	}
	if batches != 3 {
		t.Errorf("got %d batches, want 3", batches)
	}
}

func TestBatchBlockBounds(t *testing.T) {
	b := &Batch{Data: make([]byte, 100), StartPos: []int32{0, 30, 70}}
	cases := []struct{ k, lo, hi int }{{0, 0, 30}, {1, 30, 70}, {2, 70, 100}}
	for _, c := range cases {
		lo, hi := b.Block(c.k)
		if lo != c.lo || hi != c.hi {
			t.Errorf("Block(%d) = [%d,%d), want [%d,%d)", c.k, lo, hi, c.lo, c.hi)
		}
	}
}

func TestStoreFirstSighting(t *testing.T) {
	s := NewStore()
	h1 := [20]byte{1}
	h2 := [20]byte{2}
	if !s.FirstSighting(h1) {
		t.Error("first sighting of h1 should be true")
	}
	if s.FirstSighting(h1) {
		t.Error("second sighting of h1 should be false")
	}
	if !s.FirstSighting(h2) {
		t.Error("first sighting of h2 should be true")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"wrong magic": []byte("NOTANARCHIVE"),
		"bad tag":     append(append([]byte{}, magic...), 'X', 0),
		"fwd ref":     append(append([]byte{}, magic...), 'D', 5),
		"bad block":   append(append([]byte{}, magic...), 'U', 3, 9, 9, 9),
	}
	for name, data := range cases {
		var out bytes.Buffer
		if err := Restore(bytes.NewReader(data), &out); err == nil {
			t.Errorf("%s: Restore should fail", name)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	var arch bytes.Buffer
	st, err := CompressSeq(nil, &arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.RawBytes != 0 {
		t.Errorf("RawBytes = %d", st.RawBytes)
	}
	var out bytes.Buffer
	if err := Restore(&arch, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("restored %d bytes from empty input", out.Len())
	}
}

func TestWriterForcedFallback(t *testing.T) {
	// Simulate the race: upstream marked a block duplicate (no comp data)
	// but the hash was never written. The writer must compress inline and
	// still produce a valid archive.
	var arch bytes.Buffer
	dw := NewWriter(&arch)
	raw := bytes.Repeat([]byte("fallback"), 100)
	if err := dw.WriteBlock([20]byte{9}, raw, nil); err != nil {
		t.Fatal(err)
	}
	if dw.Stats().FallbackCompressions != 1 {
		t.Errorf("fallbacks = %d, want 1", dw.Stats().FallbackCompressions)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Restore(&arch, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Fatal("fallback block restore mismatch")
	}
}

// TestWriterAllocs: a warm WriteBlock allocates nothing for any record
// kind. Each run of U and R re-writes the same hash as a first occurrence
// (the table is cleared, keeping its capacity); D references it. The
// record header used to escape through bufio.Writer.Write: 1 alloc per
// record of every kind.
func TestWriterAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	raw := bytes.Repeat([]byte("allocs"), 200)
	comp := raw[:100]
	hash := [20]byte{7}
	for _, tc := range []struct {
		kind  string
		write func(dw *Writer) error
	}{
		{"U", func(dw *Writer) error { clear(dw.written); return dw.WriteBlock(hash, raw, comp) }},
		{"R", func(dw *Writer) error { clear(dw.written); return dw.WriteBlock(hash, comp, raw) }},
		{"D", func(dw *Writer) error { return dw.WriteBlock(hash, raw, nil) }},
	} {
		dw := NewWriter(io.Discard)
		if err := dw.WriteBlock(hash, raw, comp); err != nil {
			t.Fatal(err)
		}
		var err error
		allocs := testing.AllocsPerRun(100, func() { err = tc.write(dw) })
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s record: %v allocs per WriteBlock, want 0", tc.kind, allocs)
		}
	}
}

// Property: compress→restore is the identity for all three dataset kinds
// and multiple sizes/batch sizes.
func TestRoundTripProperty(t *testing.T) {
	f := func(kindSeed, sizeSeed uint8, parallel bool) bool {
		kind := workload.Kind(int(kindSeed) % 3)
		size := (int(sizeSeed)%8 + 1) * 64 * 1024
		input := workload.Generate(workload.Spec{Kind: kind, Size: size, Seed: int64(kindSeed)})
		var arch bytes.Buffer
		var err error
		opt := Options{BatchSize: 256 * 1024, Workers: 4}
		if parallel {
			_, err = CompressSPar(input, &arch, opt)
		} else {
			_, err = CompressSeq(input, &arch, opt)
		}
		if err != nil {
			return false
		}
		var out bytes.Buffer
		if err := Restore(&arch, &out); err != nil {
			return false
		}
		return bytes.Equal(out.Bytes(), input)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompressSeq(b *testing.B) {
	input := sample(4 << 20)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressSeq(input, discard{}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressSPar8(b *testing.B) {
	input := sample(4 << 20)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressSPar(input, discard{}, Options{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestGraph: dedup -graph prints the pipeline CompressSPar runs, the paper's
// five Dedup stages, under the stage names file_spar's per-layer rows read
// (hash and compress as the process stages, reorder+write as the sink).
func TestGraph(t *testing.T) {
	const want = "ToStream → hash ×3 → dedup → compress ×3 → reorder+write"
	if got := Graph(Options{Workers: 3}).String(); got != want {
		t.Errorf("Graph = %q, want %q", got, want)
	}
}
