package rabin

import (
	"math/rand"
	"testing"

	"streamgpu/internal/pool"
)

// TestAppendBoundariesMatchesBoundaries checks the appending form returns
// the same offsets as Boundaries.
func TestAppendBoundariesMatchesBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 256<<10)
	rng.Read(data)
	c := NewChunker()
	want := c.Boundaries(data)
	got := c.AppendBoundaries(nil, data)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boundary %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Reusing a warm destination must yield the same result again.
	got = c.AppendBoundaries(got[:0], data)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused dst: boundary %d = %d, want %d", i, got[i], want[i])
		}
	}
	if out := c.AppendBoundaries(got[:0], nil); len(out) != 0 {
		t.Fatalf("empty data appended %d boundaries, want 0", len(out))
	}
}

// TestAppendBoundariesAllocs pins the chunking hot path to zero heap
// allocations once the destination has capacity, on each scan.
func TestAppendBoundariesAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 128<<10)
	rng.Read(data)
	c := NewChunker()
	forEachScan(t, func(t *testing.T) {
		dst := c.AppendBoundaries(nil, data) // learn the needed capacity
		allocs := testing.AllocsPerRun(10, func() {
			dst = c.AppendBoundaries(dst[:0], data)
		})
		if allocs != 0 {
			t.Fatalf("AppendBoundaries allocates %v per batch, want 0", allocs)
		}
	})
}
