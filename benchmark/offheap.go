package main

import (
	"fmt"
	"syscall"
)

// offHeap returns n zeroed bytes the garbage collector does not know about.
// The corpus and the received archives live there: on the Go heap they would
// be live data the collector paces itself by, so the server's own garbage
// would be collected far less often than in a real streamd, and the RSS
// high-water mark would follow the collector's phase instead of the server.
// Pages count toward RSS only once written.
func offHeap(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, max(n, 1), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap %d bytes: %w", n, err)
	}
	return b[:n], nil
}

// free returns an offHeap region; b must not be used afterwards.
func free(b []byte) {
	if cap(b) > 0 {
		_ = syscall.Munmap(b[:cap(b)]) // nothing to do about a failed unmap of our own mapping
	}
}
