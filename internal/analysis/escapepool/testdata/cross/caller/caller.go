// Package caller hands pooled buffers to the callee package through
// interfaces, so the only edges into the callees' summaries are CHA edges
// that cross the package boundary.
package caller

import "streamgpu/internal/analysis/escapepool/testdata/cross/callee"

type releaser interface{ Done([]byte) }

type borrower interface{ Peek([]byte) }

// handsOff is clean: Releaser.Done's summary releases the buffer.
func handsOff(r releaser) {
	b := callee.Bufs.Get(64)
	r.Done(b)
}

// lends leaks: Borrower.Peek's summary only borrows the buffer.
func lends(r borrower) {
	b := callee.Bufs.Get(64)
	r.Peek(b)
}
