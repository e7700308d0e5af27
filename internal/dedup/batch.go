package dedup

import (
	"sync"

	"streamgpu/internal/lzss"
	"streamgpu/internal/pool"
	"streamgpu/internal/rabin"
	"streamgpu/internal/sha1x"
)

// DefaultBatchSize is the paper's fixed fragmentation size: "we made it to
// generate fixed batch sizes (1MB) and generate different block sizes with
// rabin fingerprint".
const DefaultBatchSize = 1 << 20

// Batch is one stream item of the Dedup pipeline (Fig. 2): a fixed-size
// slice of the input plus the Rabin block boundaries inside it.
type Batch struct {
	Seq      int
	Data     []byte
	StartPos []int32
	// Per-block results filled by later stages, indexed like StartPos.
	Hashes [][sha1x.Size]byte
	Comp   [][]byte // nil entry: block was judged duplicate upstream

	// Recycling state, used by the pooled pipelines (FragmentInto):
	// pooled marks a batch owned by batchPool, firsts is the dedup stage's
	// first-sighting verdict per block, and compOff is the compress stage's
	// offset scratch; both survive Release so the next batch reuses their
	// capacity. out holds the bytes Comp entries subslice, from the compress
	// stage until Release.
	pooled  bool
	firsts  []bool
	compOff []int32
	out     *compOut
}

// compOut is one batch's compressed output: the arena the sequential and GPU
// paths encode into (encodeFirsts) and the per-lane arenas of the
// lane-parallel path (compressFirstsPar). It is pooled apart from the Batch
// so only batches between compress and write hold one: a batch waiting in
// the front stages carries its small per-block arrays, not a megabyte of
// output capacity.
type compOut struct {
	arena []byte
	lanes [][]byte
}

// batchPool recycles Batch containers (and the slices hanging off them)
// across the stream — the FastFlow buffer-reuse discipline. compOutPool does
// the same for their compression arenas.
var (
	batchPool   = pool.New[*Batch]("dedup.batch", func() *Batch { return new(Batch) })
	compOutPool = pool.New[*compOut]("dedup.comp-out", func() *compOut { return new(compOut) })
)

// output returns the batch's compression arenas, taking a set from
// compOutPool on the batch's first compression.
func (b *Batch) output() *compOut {
	if b.out == nil {
		b.out = compOutPool.Get()
	}
	return b.out
}

// Release returns a pooled batch (one emitted by FragmentInto) to the free
// list; the batch and everything reachable from it must not be used
// afterwards. Calling Release on a non-pooled batch is a no-op, so sinks
// may release unconditionally.
func (b *Batch) Release() {
	if !b.pooled {
		return
	}
	b.pooled = false
	b.Seq = 0
	b.Data = nil
	b.StartPos = b.StartPos[:0]
	b.Hashes = b.Hashes[:0]
	for k := range b.Comp {
		b.Comp[k] = nil
	}
	b.Comp = b.Comp[:0]
	b.firsts = b.firsts[:0]
	if b.out != nil {
		compOutPool.Release(b.out)
		b.out = nil
	}
	batchPool.Release(b)
}

// NBlocks reports the number of blocks in the batch.
func (b *Batch) NBlocks() int { return len(b.StartPos) }

// Block returns the bounds of block k.
func (b *Batch) Block(k int) (lo, hi int) {
	lo = int(b.StartPos[k])
	hi = len(b.Data)
	if k+1 < len(b.StartPos) {
		hi = int(b.StartPos[k+1])
	}
	return lo, hi
}

// Fragment cuts input into batches of batchSize bytes (the last one may be
// short) and computes Rabin boundaries for each — the paper's stage 1,
// always on the CPU. Each call allocates fresh batches the consumer keeps
// forever; the streaming pipelines use FragmentInto instead.
func Fragment(input []byte, batchSize int, emit func(*Batch)) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	chunker := rabin.NewChunker()
	seq := 0
	for off := 0; off < len(input); off += batchSize {
		end := off + batchSize
		if end > len(input) {
			end = len(input)
		}
		data := input[off:end]
		emit(&Batch{Seq: seq, Data: data, StartPos: chunker.Boundaries(data)})
		seq++
	}
}

// FragmentInto is the recycling form of Fragment: every emitted batch comes
// from the package free list and its boundary array is computed in place
// into the batch's recycled StartPos (rabin.AppendBoundaries), so a warm
// stream fragments without heap allocation. Ownership of each batch
// transfers to the consumer, which must call (*Batch).Release when the
// batch has fully left the pipeline.
func FragmentInto(input []byte, batchSize int, emit func(*Batch)) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	chunker := rabin.NewChunker()
	seq := 0
	for off := 0; off < len(input); off += batchSize {
		end := off + batchSize
		if end > len(input) {
			end = len(input)
		}
		data := input[off:end]
		b := batchPool.Get()
		b.pooled = true
		b.Seq = seq
		b.Data = data
		b.StartPos = chunker.AppendBoundaries(b.StartPos[:0], data)
		emit(b)
		seq++
	}
}

// HashBlocks computes the SHA-1 of every block (the CPU path of stage 2),
// reusing the batch's Hashes capacity when it suffices.
func (b *Batch) HashBlocks() {
	sha1x.SumBatch(b.Data, b.StartPos, resized(&b.Hashes, b.NBlocks()))
}

// resized returns *p resized to n entries, reallocating only to grow; the
// entries are the caller's to fill. It is how every per-batch array —
// on the Batch and in the GPU path's memory space — keeps its capacity from
// one batch to the next.
func resized[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return *p
}

// markFirsts runs the dedup stage: one batched store lookup fills
// b.firsts[k] with whether block k's hash was seen here first.
func (b *Batch) markFirsts(store BlockStore) {
	store.FirstSightings(b.Hashes, resized(&b.firsts, b.NBlocks()))
}

// compressFirsts LZSS-compresses every first-sighting block on the CPU; see
// encodeFirsts for where the bytes land.
func (b *Batch) compressFirsts(m *lzss.Matcher) {
	b.encodeFirsts(func(dst []byte, lo, hi int) []byte { return m.AppendCompress(dst, b.Data[lo:hi]) })
}

// encodeFirsts appends enc's encoding of every first-sighting block
// [lo, hi) to the batch's arena and points Comp[k] at the block's subslice
// (capacity-capped so downstream code cannot grow one block into the next).
// Appending into one arena means a warm batch compresses with zero heap
// allocations: the arena's capacity stabilizes after a few batches.
func (b *Batch) encodeFirsts(enc func(dst []byte, lo, hi int) []byte) {
	n := b.NBlocks()
	resized(&b.Comp, n)
	off := resized(&b.compOff, n)
	out := b.output()
	arena := out.arena[:0]
	for k := 0; k < n; k++ {
		off[k] = -1
		if b.firsts[k] {
			off[k] = int32(len(arena))
			lo, hi := b.Block(k)
			arena = enc(arena, lo, hi)
		}
	}
	out.arena = arena
	// Subslice only once the arena has stopped growing: offsets survive
	// reallocation, pointers would not.
	end := int32(len(arena))
	for k := n - 1; k >= 0; k-- {
		if off[k] >= 0 {
			b.Comp[k] = arena[off[k]:end:end]
			end = off[k]
		} else {
			b.Comp[k] = nil
		}
	}
}

// BlockStore is the duplicate-detection interface stage 3 consults: one
// batched lookup records every hash and reports which were first sightings.
// It is a processing-time hint — the archive Writer still makes the
// authoritative stream-order decision — so an implementation may be a
// process-local table (*Store) or span a whole cluster (internal/cluster's
// content-addressed store) without affecting archive bytes.
type BlockStore interface {
	// FirstSightings records every hash and fills dst[i] with whether
	// hashes[i] was new to the store. dst must be at least as long as hashes.
	FirstSightings(hashes [][sha1x.Size]byte, dst []bool)
}

// CompSource is an optional BlockStore extension: a store that can supply
// the compressed body of a previously published block, so a duplicate block
// costs a lookup instead of a recompression. The returned slice must stay
// valid and immutable after the call (implementations return stable copies).
// Correctness does not depend on it — a miss just falls back to the archive
// Writer's inline compression, and LZSS is deterministic, so archive bytes
// are identical either way.
type CompSource interface {
	FetchComp(h [sha1x.Size]byte) ([]byte, bool)
}

// CompSink is the publishing half: a processor hands every block it
// compressed to the sink so later sightings anywhere in the store's scope
// can fetch instead of recompress. comp is only valid during the call
// (batch arenas are recycled); implementations must copy.
type CompSink interface {
	PublishComp(h [sha1x.Size]byte, comp []byte)
}

// DefaultStoreShards is the default stripe count of a Store: enough that a
// farm of compress replicas almost never collides on a stripe (collision
// probability ~replicas/shards per lookup), small enough that the per-shard
// maps stay dense.
const DefaultStoreShards = 64

// storeShard is one stripe of the table. The padding keeps neighbouring
// stripes' mutexes off one cache line, so contended stripes do not false-share.
type storeShard struct {
	mu   sync.Mutex
	seen map[[sha1x.Size]byte]struct{}
	_    [64 - 8 - 8]byte
}

// Store is the shared duplicate-detection table (stage 3). It is a
// processing-time hint: the first processor of a hash wins and compresses;
// the archive Writer makes the authoritative stream-order decision.
//
// The table is striped across power-of-two shards keyed by the hash's first
// bytes: every hash maps to exactly one shard, whose mutex serializes the
// check-and-record, so the exactly-once FirstSighting guarantee holds
// per hash exactly as it did under one global lock — while replicated
// compress stages touching different hashes proceed in parallel.
type Store struct {
	mask   uint32
	shards []storeShard
}

// NewStore creates an empty duplicate store with DefaultStoreShards stripes.
func NewStore() *Store { return NewStoreSharded(DefaultStoreShards) }

// NewStoreSharded creates an empty duplicate store with n stripes, rounded
// up to a power of two (minimum 1).
func NewStoreSharded(n int) *Store {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	s := &Store{mask: uint32(p - 1), shards: make([]storeShard, p)}
	for i := range s.shards {
		s.shards[i].seen = make(map[[sha1x.Size]byte]struct{})
	}
	return s
}

// Shards reports the stripe count.
func (s *Store) Shards() int { return len(s.shards) }

// shardFor routes h to its stripe. SHA-1 output is uniform, so the low two
// bytes index up to 2^16 stripes without skew.
func (s *Store) shardFor(h *[sha1x.Size]byte) *storeShard {
	return &s.shards[(uint32(h[0])|uint32(h[1])<<8)&s.mask]
}

// FirstSighting atomically records h and reports whether this call was the
// first to see it.
func (s *Store) FirstSighting(h [sha1x.Size]byte) bool {
	sh := s.shardFor(&h)
	sh.mu.Lock()
	_, dup := sh.seen[h]
	if !dup {
		sh.seen[h] = struct{}{}
	}
	sh.mu.Unlock()
	return !dup
}

// FirstSightings is the batched form of FirstSighting: every hash is
// recorded in its stripe and dst[i] filled with whether hashes[i] was new.
// dst must be at least as long as hashes. Each stripe's check-and-record is
// atomic per hash; concurrent batches only serialize where their hashes
// share a stripe.
func (s *Store) FirstSightings(hashes [][sha1x.Size]byte, dst []bool) {
	for i := range hashes {
		h := &hashes[i]
		sh := s.shardFor(h)
		sh.mu.Lock()
		_, dup := sh.seen[*h]
		if !dup {
			sh.seen[*h] = struct{}{}
		}
		sh.mu.Unlock()
		dst[i] = !dup
	}
}

// Len reports the number of distinct hashes seen.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.seen)
		sh.mu.Unlock()
	}
	return n
}
