package dedup

import (
	"bytes"
	"sync"
	"testing"

	"streamgpu/internal/lzss"
	"streamgpu/internal/pool"
	"streamgpu/internal/rabin"
)

// TestPooledPipelineStress runs several 5-stage pooled pipelines
// concurrently over the shared batch free list and checks every archive is
// byte-identical to the sequential reference. Under -race this exercises
// the ownership contract: a use-after-release of a recycled batch (or of
// any slice hanging off one) shows up as a data race or a corrupt archive.
func TestPooledPipelineStress(t *testing.T) {
	input := sample(2 << 20)
	var want bytes.Buffer
	if _, err := CompressSeq(input, &want, Options{BatchSize: 96 << 10}); err != nil {
		t.Fatal(err)
	}

	const runs = 4
	var wg sync.WaitGroup
	errs := make([]error, runs)
	archs := make([]bytes.Buffer, runs)
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opt := Options{BatchSize: 96 << 10, Workers: 3}
			_, errs[r] = CompressSPar(input, &archs[r], opt)
		}(r)
	}
	wg.Wait()
	for r := 0; r < runs; r++ {
		if errs[r] != nil {
			t.Fatalf("run %d: %v", r, errs[r])
		}
		if !bytes.Equal(archs[r].Bytes(), want.Bytes()) {
			t.Fatalf("run %d: pooled pipeline archive differs from CompressSeq", r)
		}
	}

	// Round-trip one of them for good measure.
	var out bytes.Buffer
	if err := Restore(bytes.NewReader(archs[0].Bytes()), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), input) {
		t.Fatal("restore mismatch")
	}
}

// TestFragmentIntoRecycles checks released batches actually come back from
// the free list with their per-batch state cleared.
func TestFragmentIntoRecycles(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool randomizes reuse under -race")
	}
	input := sample(512 << 10)
	var batches []*Batch
	FragmentInto(input, 128<<10, func(b *Batch) {
		if b.NBlocks() == 0 || b.StartPos[0] != 0 {
			t.Fatalf("batch %d: bad boundaries", b.Seq)
		}
		batches = append(batches, b)
	})
	if len(batches) != 4 {
		t.Fatalf("got %d batches, want 4", len(batches))
	}
	for _, b := range batches {
		b.HashBlocks()
		b.Release()
	}
	// A fresh fragmentation must find recycled containers with cleared
	// result state.
	FragmentInto(input, 128<<10, func(b *Batch) {
		if len(b.Hashes) != 0 || len(b.Comp) != 0 {
			t.Fatalf("batch %d: recycled with stale results", b.Seq)
		}
		b.Release()
	})
	st := batchPool.Stats()
	if st.Gets-st.Misses == 0 {
		t.Fatalf("no batch reuse observed: %+v", st)
	}
}

// TestArenasFollowCompress checks a batch holds compression arenas only from
// its compression to its release: a batch fresh out of FragmentInto, which
// may wait in the front stages behind a slow compress stage, carries none.
func TestArenasFollowCompress(t *testing.T) {
	input := sample(512 << 10)
	store := Options{}.newStore()
	m := lzss.NewMatcher()
	for _, lanes := range []int{1, 3} {
		rel := compOutPool.Stats().Releases
		var batches []*Batch
		FragmentInto(input, 128<<10, func(b *Batch) {
			if b.out != nil {
				t.Fatalf("lanes %d, batch %d: holds arenas before compress", lanes, b.Seq)
			}
			b.HashBlocks()
			b.markFirsts(store)
			b.CompressFirsts(m, lanes)
			if b.out == nil {
				t.Fatalf("lanes %d, batch %d: compressed without arenas", lanes, b.Seq)
			}
			batches = append(batches, b)
		})
		for _, b := range batches {
			b.Release()
			if b.out != nil {
				t.Fatalf("lanes %d: Release kept the arenas", lanes)
			}
		}
		if got := compOutPool.Stats().Releases - rel; got != int64(len(batches)) {
			t.Fatalf("lanes %d: %d arena sets released for %d batches", lanes, got, len(batches))
		}
	}
}

// TestReleaseOnPlainBatchIsNoOp guards the unconditional-release contract
// for batches created by Fragment.
func TestReleaseOnPlainBatchIsNoOp(t *testing.T) {
	input := sample(64 << 10)
	Fragment(input, 0, func(b *Batch) {
		b.Release()
		if b.Data == nil {
			t.Fatal("Release cleared a non-pooled batch")
		}
	})
}

// TestSeqAllocsSteadyState pins the sequential host path: after a warm-up
// run, compressing with a warm Writer must stay modest on allocations per
// batch (the archive map and bufio flushing still allocate, but the kernel
// paths must not). This is a regression tripwire rather than a strict zero.
func TestSeqAllocsSteadyState(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	input := sample(1 << 20)
	b := &Batch{Data: input}
	c := rabin.NewChunker()
	b.StartPos = c.AppendBoundaries(nil, input)
	b.HashBlocks()
	allocs := testing.AllocsPerRun(5, func() {
		b.StartPos = c.AppendBoundaries(b.StartPos[:0], input)
		b.HashBlocks()
	})
	if allocs != 0 {
		t.Fatalf("fragment+hash allocates %v per batch, want 0", allocs)
	}
}
