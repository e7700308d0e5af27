// Fixture: pooled values whose every path releases or hands off ownership —
// including releases that happen inside callees and defers, which the
// path analysis must credit.
package fixture

import (
	"sync"

	"streamgpu/internal/pool"
)

var (
	bufs = pool.NewBytes("fixture.bufs")
	sink int
)

// releaseAll releases its parameter on every path.
func releaseAll(b []byte) {
	bufs.Release(b)
}

// handsOff delegates the release to a callee whose summary proves it
// always releases.
func handsOff() {
	b := bufs.Get(16)
	releaseAll(b)
}

// bothPaths releases on the early return and on the fallthrough.
func bothPaths(fail bool) {
	b := bufs.Get(8)
	if fail {
		bufs.Release(b)
		return
	}
	b[0] = 1
	bufs.Release(b)
}

// deferred releases at function exit.
func deferred() {
	b := bufs.Get(8)
	defer bufs.Release(b)
	sink = int(b[0])
}

// deferredClosure releases through a deferred literal.
func deferredClosure() {
	b := bufs.Get(8)
	defer func() { bufs.Release(b) }()
	b[0] = 1
}

// returned moves ownership to the caller: an escape, silent by design.
func returned() []byte {
	b := bufs.Get(8)
	return b
}

// escapeOnErrorPath mixes an escape with a release; escapes are forgiving,
// so the join stays silent.
func escapeOnErrorPath(fail bool) []byte {
	b := bufs.Get(8)
	if fail {
		return b
	}
	bufs.Release(b)
	return nil
}

// laneWorker borrows the buffer: every use is an index or a Done.
func laneWorker(b []byte, wg *sync.WaitGroup) {
	b[0] = 1
	wg.Done()
}

// laneFanOutJoin is the lane-parallel compress shape: Get, spawn a
// borrowing worker, join, Release from the spawner — ownership never moves
// even though the value crosses a goroutine boundary.
func laneFanOutJoin() {
	var wg sync.WaitGroup
	b := bufs.Get(64)
	wg.Add(1)
	go laneWorker(b, &wg)
	wg.Wait()
	bufs.Release(b)
}
