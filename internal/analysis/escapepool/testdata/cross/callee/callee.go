// Package callee holds the methods the caller package reaches only through
// interface (CHA) edges: one releases the pooled buffer it is handed, the
// other only borrows it.
package callee

import "streamgpu/internal/pool"

// Bufs is the free list both packages draw from.
var Bufs = pool.NewBytes("fixture.cross")

// Releaser takes ownership: every path releases the buffer.
type Releaser struct{}

func (Releaser) Done(b []byte) { Bufs.Release(b) }

// Borrower only reads the buffer; its caller still owns it.
type Borrower struct{ sum int }

func (r *Borrower) Peek(b []byte) {
	for _, c := range b {
		r.sum += int(c)
	}
}
