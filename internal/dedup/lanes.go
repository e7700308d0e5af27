package dedup

import (
	"sync"

	"streamgpu/internal/lzss"
	"streamgpu/internal/pool"
)

// laneMatchers backs the extra matchers the lane-parallel compress path
// borrows: lane 0 always runs on the replica's own Matcher, lanes 1..K-1 on
// pooled ones, returned as soon as the join completes. A warm pipeline
// therefore holds (replicas + lanes-1) matcher states, not replicas*lanes.
var laneMatchers = pool.New[*lzss.Matcher]("dedup.lane-matcher", lzss.NewMatcher)

// compressLaneTask is one lane of a batch compression: a contiguous block
// range encoded into the batch's per-lane arena. run is built once per task
// (capturing only the task pointer), so a lane spawn is a no-argument func
// value the runtime starts without allocating.
type compressLaneTask struct {
	b      *Batch
	m      *lzss.Matcher
	lane   int
	k0, k1 int
	wg     *sync.WaitGroup
	run    func()
}

func (t *compressLaneTask) clear() {
	t.b = nil
	t.m = nil
}

// compressLaneScratch is the pooled fan-out state of compressFirstsPar.
type compressLaneScratch struct {
	tasks []*compressLaneTask
	wg    sync.WaitGroup
}

func (s *compressLaneScratch) grow(n int) {
	for len(s.tasks) < n {
		t := &compressLaneTask{wg: &s.wg}
		t.run = func() {
			t.b.compressLane(t.m, t.lane, t.k0, t.k1)
			t.wg.Done()
		}
		s.tasks = append(s.tasks, t)
	}
}

var laneScratchPool = pool.New[*compressLaneScratch]("dedup.compress-lanes", func() *compressLaneScratch {
	return new(compressLaneScratch)
})

// laneCut returns the first block whose start position is at or past the
// byte-proportional target for lane boundary i of lanes — the same
// byte-balanced partition lzss.FindMatchesPar uses (Rabin blocks vary widely
// in size, so splitting by block count would skew lanes).
func (b *Batch) laneCut(i, lanes int) int {
	if i <= 0 {
		return 0
	}
	if i >= lanes {
		return len(b.StartPos)
	}
	target := int32(uint64(len(b.Data)) * uint64(i) / uint64(lanes))
	lo, hi := 0, len(b.StartPos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.StartPos[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// compressLane encodes the first-sighting blocks of [k0, k1) into the lane's
// arena, recording each block's arena offset in the shared compOff array
// (disjoint writes: every block belongs to exactly one lane).
func (b *Batch) compressLane(m *lzss.Matcher, lane, k0, k1 int) {
	arena := b.out.lanes[lane][:0]
	off := b.compOff
	for k := k0; k < k1; k++ {
		off[k] = -1
		if b.firsts[k] {
			off[k] = int32(len(arena))
			lo, hi := b.Block(k)
			arena = m.AppendCompress(arena, b.Data[lo:hi])
		}
	}
	b.out.lanes[lane] = arena
}

// CompressFirsts LZSS-compresses every first-sighting block (per b.firsts,
// see MarkFirsts) into batch-owned arenas and points Comp[k] at each block's
// bytes. lanes <= 1 is the sequential arena path; lanes > 1 splits the
// batch's blocks into byte-balanced contiguous lanes compressed
// concurrently, each on its own Matcher — output bytes are identical either
// way because every block is encoded independently by a deterministic
// encoder. m is the caller's own matcher (lane 0 runs on it); extra lanes
// borrow pooled matchers for the duration of the call. A warm batch
// compresses with zero heap allocations on both paths.
func (b *Batch) CompressFirsts(m *lzss.Matcher, lanes int) {
	n := b.NBlocks()
	if lanes > n {
		lanes = n
	}
	if lanes <= 1 {
		b.compressFirsts(m)
		return
	}
	b.compressFirstsPar(m, lanes)
}

// compressFirstsPar is the lane-parallel body of CompressFirsts.
func (b *Batch) compressFirstsPar(m *lzss.Matcher, lanes int) {
	n := b.NBlocks()
	if cap(b.Comp) < n {
		b.Comp = make([][]byte, n)
	}
	b.Comp = b.Comp[:n]
	if cap(b.compOff) < n {
		b.compOff = make([]int32, n)
	}
	b.compOff = b.compOff[:n]
	out := b.output()
	for len(out.lanes) < lanes {
		out.lanes = append(out.lanes, nil)
	}

	sc := laneScratchPool.Get()
	sc.grow(lanes)
	spawned := 0
	k0 := 0
	for i := 0; i < lanes; i++ {
		k1 := b.laneCut(i+1, lanes)
		if k1 <= k0 {
			continue
		}
		t := sc.tasks[spawned]
		t.b = b
		t.lane = spawned
		t.k0, t.k1 = k0, k1
		if spawned == 0 {
			t.m = m
		} else {
			t.m = laneMatchers.Get()
		}
		spawned++
		k0 = k1
	}
	sc.wg.Add(spawned - 1)
	for i := 1; i < spawned; i++ {
		go sc.tasks[i].run()
	}
	t0 := sc.tasks[0]
	b.compressLane(t0.m, t0.lane, t0.k0, t0.k1)
	sc.wg.Wait()

	// Join: point Comp[k] at its lane arena subslice, back to front within
	// each lane so every entry is capacity-capped at its successor's start
	// (downstream code cannot grow one block into the next).
	for i := 0; i < spawned; i++ {
		t := sc.tasks[i]
		arena := out.lanes[t.lane]
		end := int32(len(arena))
		for k := t.k1 - 1; k >= t.k0; k-- {
			if b.compOff[k] >= 0 {
				b.Comp[k] = arena[b.compOff[k]:end:end]
				end = b.compOff[k]
			} else {
				b.Comp[k] = nil
			}
		}
		if i > 0 {
			laneMatchers.Release(t.m)
		}
		t.clear()
	}
	laneScratchPool.Release(sc)
}
