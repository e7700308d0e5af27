package lzss

import (
	"runtime"
	"sync"

	"streamgpu/internal/pool"
)

// maxLanes caps the lane fan-out: beyond 8 lanes the per-batch work units
// (1 MB / lanes) get small enough that spawn/join overhead and cache traffic
// eat the gains, and the matcher pool would pin 8+ sets of chain tables.
const maxLanes = 8

// DefaultLanes is the GOMAXPROCS-derived lane count the pipelines use when
// the caller does not pick one: one lane per schedulable core, capped at
// maxLanes.
func DefaultLanes() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > maxLanes {
		n = maxLanes
	}
	return n
}

// LaneBody is the work RunLanes fans out: blocks [k0, k1) of a batch on
// matcher m. lane numbers the non-empty lanes 0, 1, ... in block order. The
// lanes of one run execute concurrently, so a body may write only what its
// own blocks or its own lane index own.
type LaneBody interface {
	RunLane(m *Matcher, lane, k0, k1 int)
}

// laneTask is one spawned lane. run is built once per task (capturing only
// the task pointer) so spawning a lane is `go t.run()` — a no-argument func
// value, which the runtime starts without allocating a closure.
type laneTask struct {
	body         LaneBody
	m            *Matcher
	lane, k0, k1 int
	wg           *sync.WaitGroup
	run          func()
}

// parScratch is the reusable spawn state behind RunLanes: the lane tasks
// (with their prebuilt run closures) and the join group. Pooled so a warm
// caller runs the whole fan-out/join with zero heap allocations.
type parScratch struct {
	tasks []*laneTask
	wg    sync.WaitGroup
}

// grow ensures at least n lane tasks exist.
func (s *parScratch) grow(n int) {
	for len(s.tasks) < n {
		t := &laneTask{wg: &s.wg}
		t.run = func() {
			t.body.RunLane(t.m, t.lane, t.k0, t.k1)
			t.wg.Done()
		}
		s.tasks = append(s.tasks, t)
	}
}

var parPool = pool.New[*parScratch]("lzss.par", func() *parScratch { return new(parScratch) })

// laneCut returns the first block index whose start position is >= the
// byte-proportional target for lane boundary i of lanes — the partition that
// balances lanes by bytes, not block count (Rabin blocks vary widely in
// size). laneCut(0)=0 and laneCut(lanes)=len(startPos); cuts are monotone, so
// a lane can be empty when blocks are huge relative to the batch.
func laneCut(i, lanes int, input []byte, startPos []int32) int {
	if i <= 0 {
		return 0
	}
	if i >= lanes {
		return len(startPos)
	}
	target := int32(uint64(len(input)) * uint64(i) / uint64(lanes))
	lo, hi := 0, len(startPos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if startPos[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RunLanes splits the blocks of input (starting at startPos) into up to
// lanes byte-balanced contiguous ranges and runs body once per non-empty
// range: lane 0 inline on the caller's matcher m, so the caller's core is
// never idle during the join, and lanes 1..K-1 on their own goroutines with
// matchers borrowed from the package pool and returned at the join. lanes is
// capped at maxLanes and at the block count; lanes <= 1 runs body once over
// every block on m. RunLanes returns when every lane has finished; a warm
// call performs no heap allocation.
func RunLanes(lanes int, m *Matcher, input []byte, startPos []int32, body LaneBody) {
	lanes = min(lanes, maxLanes, len(startPos))
	if lanes <= 1 {
		body.RunLane(m, 0, 0, len(startPos))
		return
	}
	sc := parPool.Get()
	sc.grow(lanes)
	spawned, k0 := 0, 0
	for i := 1; i <= lanes; i++ {
		k1 := laneCut(i, lanes, input, startPos)
		if k1 <= k0 {
			continue
		}
		t := sc.tasks[spawned]
		t.body, t.m = body, m
		if spawned > 0 {
			t.m = matcherPool.Get()
		}
		t.lane, t.k0, t.k1 = spawned, k0, k1
		spawned++
		k0 = k1
	}
	sc.wg.Add(spawned - 1)
	for _, t := range sc.tasks[1:spawned] {
		go t.run()
	}
	t0 := sc.tasks[0]
	body.RunLane(m, 0, t0.k0, t0.k1)
	sc.wg.Wait()
	for i, t := range sc.tasks[:spawned] {
		if i > 0 {
			matcherPool.Release(t.m)
		}
		t.body, t.m = nil, nil
	}
	parPool.Release(sc)
}

// findLanes is FindMatchesPar's lane body: all-positions match-finding over
// a lane's blocks into the caller's shared match arrays (each lane writes
// only the positions its blocks cover). Pooled, because a body handed to
// RunLanes outlives the caller's stack frame in the spawned lanes.
type findLanes struct {
	input              []byte
	startPos           []int32
	matchLen, matchOff []int32
}

func (f *findLanes) RunLane(m *Matcher, _, k0, k1 int) {
	m.findMatchesRange(f.input, f.startPos, k0, k1, f.matchLen, f.matchOff)
}

var findPool = pool.New[*findLanes]("lzss.find-lanes", func() *findLanes { return new(findLanes) })

// FindMatchesPar computes exactly the bytes (*Matcher).FindMatches computes,
// split across up to lanes concurrent matchers (RunLanes). Correctness rests
// on the core property of the match semantics: a match never crosses a
// startPos boundary, and a block's chains never reach below its first
// position, so the per-block output is a pure function of that block's bytes.
// Partitioning the blocks into contiguous lanes therefore changes scheduling
// only — each lane writes the disjoint matchLen/matchOff region its blocks
// own, and the merged result is bit-identical to the sequential pass (proven
// against the equivalence harness in par_test.go).
//
// lanes <= 0 selects DefaultLanes(). Every matcher, including lane 0's, is
// borrowed from the package pool; a warm call performs no heap allocation.
func FindMatchesPar(lanes int, input []byte, startPos []int32, matchLen, matchOff []int32) {
	checkMatchArgs(input, startPos, matchLen, matchOff)
	if lanes <= 0 {
		lanes = DefaultLanes()
	}
	f := findPool.Get()
	*f = findLanes{input: input, startPos: startPos, matchLen: matchLen, matchOff: matchOff}
	m := matcherPool.Get()
	RunLanes(lanes, m, input, startPos, f)
	matcherPool.Release(m)
	*f = findLanes{}
	findPool.Release(f)
}
