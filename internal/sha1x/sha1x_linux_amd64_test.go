package sha1x

import (
	"math/rand"
	"syscall"
	"testing"
)

// TestSumBatchStaysInBounds hashes each edge layout from a batch that ends
// where an unreadable page begins, so a load past the batch faults: the
// gathers of an idle lane, which read a busy lane's blocks, and of a lane
// whose block is nearly done must stay inside the batch.
func TestSumBatchStaysInBounds(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 64<<10+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[64<<10:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	forEachPath(t, func(t *testing.T) {
		for name, lens := range edgeLayouts {
			t.Run(name, func(t *testing.T) {
				data, startPos := batchOf(rand.New(rand.NewSource(1)), lens)
				end := copy(mem[64<<10-len(data):], data)
				checkBatch(t, mem[64<<10-end:64<<10:64<<10], startPos)
			})
		}
	})
}
