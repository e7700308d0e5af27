package dedup

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"streamgpu/internal/lzss"
	"streamgpu/internal/pool"
	"streamgpu/internal/sha1x"
)

// oneBatch fragments input and returns its first batch, hashed and
// first-marked against a fresh store.
func oneBatch(t *testing.T, size int) *Batch {
	t.Helper()
	input := sample(size)
	var batch *Batch
	FragmentInto(input, DefaultBatchSize, func(b *Batch) {
		if batch == nil {
			batch = b
			return
		}
		b.Release()
	})
	if batch == nil {
		t.Fatal("no batch")
	}
	batch.HashBlocks()
	batch.markFirsts(NewStore())
	return batch
}

// TestCompressFirstsLanesBitExact checks CompressFirsts produces exactly the
// standalone encoder's bytes for every first-sighting block, capacity-capped,
// for every lane count, including more lanes than blocks. Comp is cleared
// before each run, so a lane that never ran cannot pass on a previous run's
// output.
func TestCompressFirstsLanesBitExact(t *testing.T) {
	batch := oneBatch(t, 1<<20)
	want := make([][]byte, batch.NBlocks())
	for k := range want {
		if batch.firsts[k] {
			lo, hi := batch.Block(k)
			want[k] = lzss.Compress(batch.Data[lo:hi])
		}
	}
	m := lzss.NewMatcher()
	for _, lanes := range []int{1, 2, 3, 4, 7, 8, batch.NBlocks() + 5} {
		clear(batch.Comp)
		batch.CompressFirsts(m, lanes)
		for k := range want {
			c := batch.Comp[k]
			if (want[k] == nil) != (c == nil) || !bytes.Equal(c, want[k]) || cap(c) != len(c) {
				t.Fatalf("lanes=%d block %d: compressed bytes differ from the standalone encoder's", lanes, k)
			}
		}
	}
}

// TestCompressFirstsLanesDuplicates checks the lane path honours the
// first-sighting verdicts: duplicate blocks stay nil, firsts get bytes.
func TestCompressFirstsLanesDuplicates(t *testing.T) {
	batch := oneBatch(t, 1<<20)
	// Mark every other block a duplicate.
	for k := range batch.firsts {
		batch.firsts[k] = k%2 == 0
	}
	batch.CompressFirsts(lzss.NewMatcher(), 4)
	for k := range batch.Comp {
		first := k%2 == 0
		if first && batch.Comp[k] == nil {
			t.Fatalf("block %d: first sighting got no compression", k)
		}
		if !first && batch.Comp[k] != nil {
			t.Fatalf("block %d: duplicate was compressed", k)
		}
	}
}

// TestCompressFirstsLanesAllocs pins the warm lane-parallel compress to zero
// heap allocations per batch: arenas, lane matchers, and spawn state are all
// recycled.
func TestCompressFirstsLanesAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	batch := oneBatch(t, 1<<20)
	m := lzss.NewMatcher()
	for i := 0; i < 3; i++ {
		batch.CompressFirsts(m, 4) // warm arenas, pools and goroutine free list
	}
	allocs := testing.AllocsPerRun(8, func() {
		batch.CompressFirsts(m, 4)
	})
	if allocs != 0 {
		t.Fatalf("CompressFirsts(lanes=4) allocates %v per batch, want 0", allocs)
	}
}

// TestStoreShardedExactlyOnce hammers one Store from many goroutines
// presenting overlapping hash sets and checks every hash is granted to
// exactly one caller — the MarkFirst exactly-once contract under striping.
func TestStoreShardedExactlyOnce(t *testing.T) {
	for _, shards := range []int{1, 3, 64} {
		store := newStoreSharded(shards)
		if got := len(store.shards); got < shards || got&(got-1) != 0 {
			t.Fatalf("%d stripes for %d requested, want the next power of two", got, shards)
		}
		const nHashes = 4096
		hashes := make([][sha1x.Size]byte, nHashes)
		for i := range hashes {
			hashes[i] = sha1x.Sum20([]byte{byte(i), byte(i >> 8), 0xA5})
		}
		const workers = 8
		wins := make([][]bool, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wins[w] = make([]bool, nHashes)
			wg.Add(1)
			go func() {
				defer wg.Done()
				store.FirstSightings(hashes, wins[w])
			}()
		}
		wg.Wait()
		for i := 0; i < nHashes; i++ {
			n := 0
			for w := 0; w < workers; w++ {
				if wins[w][i] {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("shards=%d hash %d: %d first-sighting grants, want exactly 1", shards, i, n)
			}
		}
		if store.Len() != nHashes {
			t.Fatalf("shards=%d: Len()=%d, want %d", shards, store.Len(), nHashes)
		}
	}
}

// TestStoreContendedSoak is the contended-store soak: sustained concurrent
// FirstSightings traffic with a mix of fresh and repeated hashes across all
// stripes, under -race in CI. -short bounds the depth.
func TestStoreContendedSoak(t *testing.T) {
	rounds := 64
	if testing.Short() {
		rounds = 8
	}
	store := NewStore()
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	granted := make([]int, workers)
	const perRound = 512
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			hashes := make([][sha1x.Size]byte, perRound)
			dst := make([]bool, perRound)
			for r := 0; r < rounds; r++ {
				for i := range hashes {
					// Half the hashes are shared across workers (contended),
					// half are worker-private (fresh inserts every round).
					if i%2 == 0 {
						hashes[i] = sha1x.Sum20([]byte{byte(i), byte(i >> 8), byte(r), 0x11})
					} else {
						hashes[i] = sha1x.Sum20([]byte{byte(i), byte(i >> 8), byte(r), byte(w), 0x22})
					}
				}
				store.FirstSightings(hashes, dst)
				for i := range dst {
					if dst[i] {
						granted[w]++
					}
				}
				if store.FirstSighting(hashes[0]) {
					t.Error("hash granted twice")
					return
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, g := range granted {
		total += g
	}
	// Shared hashes: perRound/2 per round granted once each; private hashes:
	// perRound/2 per round per worker.
	want := rounds*perRound/2 + rounds*perRound/2*workers
	if total != want {
		t.Fatalf("total grants %d, want %d", total, want)
	}
}
