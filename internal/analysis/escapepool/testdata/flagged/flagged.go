// Fixture: the two path-sensitive leak shapes — a Release missing
// on some paths only, and a value handed to a borrow-only helper and then
// dropped.
package fixture

import (
	"errors"

	"streamgpu/internal/pool"
)

var (
	bufs       = pool.NewBytes("fixture.bufs")
	errFixture = errors.New("fixture")
	sink       int
)

// earlyReturn releases on the happy path but leaks on the error path —
// a single Release anywhere does not cover every path.
func earlyReturn(fail bool) error {
	b := bufs.Get(64) // want `released on some paths but not all`
	if fail {
		return errFixture
	}
	bufs.Release(b)
	return nil
}

// fill only borrows its parameter: every use is an index or range.
func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

// borrowedAndDropped passes the buffer to a borrow-only helper and drops
// it; the helper's summary proves ownership never moved.
func borrowedAndDropped() {
	b := bufs.Get(64) // want `only borrows it`
	fill(b, 1)
}

// maybeRelease releases its parameter on one path only.
func maybeRelease(b []byte, ok bool) {
	if ok {
		bufs.Release(b)
	}
}

// reliesOnMaybe inherits the callee's conditional release: some paths
// through the callee leak.
func reliesOnMaybe(ok bool) {
	b := bufs.Get(32) // want `released on some paths but not all`
	maybeRelease(b, ok)
}

// compressLane only borrows the lane buffer: every use is an index.
func compressLane(b []byte) {
	for i := range b {
		b[i]++
	}
}

// laneInlineEarlyReturn is the lane fan-out leak shape: lane 0 runs inline
// on the caller's own pooled value (compressLane only borrows), and the
// failure path returns before the post-join Release.
func laneInlineEarlyReturn(fail bool) {
	b := bufs.Get(64) // want `released on some paths but not all`
	compressLane(b)
	if fail {
		return
	}
	bufs.Release(b)
}
