package sha1x

import (
	"math/rand"
	"testing"

	"streamgpu/internal/pool"
)

// TestSumBatchMatchesSum20 checks the batch hasher computes the same
// per-block digests as Sum20.
func TestSumBatchMatchesSum20(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 96<<10)
	rng.Read(data)
	startPos := []int32{0, 100, 101, 4096}
	for p := 5000; p < len(data); p += 3001 {
		startPos = append(startPos, int32(p))
	}
	dst := make([][Size]byte, len(startPos))
	forEachPath(t, func(t *testing.T) {
		SumBatch(data, startPos, dst)
		for i, lo := range startPos {
			hi := len(data)
			if i+1 < len(startPos) {
				hi = int(startPos[i+1])
			}
			if want := Sum20(data[lo:hi]); dst[i] != want {
				t.Fatalf("block %d: SumBatch digest differs from Sum20", i)
			}
		}
	})
}

// TestSumBatchAllocs pins batch hashing to zero heap allocations.
func TestSumBatchAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 64<<10)
	rng.Read(data)
	var startPos []int32
	for p := 0; p < len(data); p += 2731 {
		startPos = append(startPos, int32(p))
	}
	dst := make([][Size]byte, len(startPos))
	forEachPath(t, func(t *testing.T) {
		allocs := testing.AllocsPerRun(10, func() {
			SumBatch(data, startPos, dst)
		})
		if allocs != 0 {
			t.Fatalf("SumBatch allocates %v per batch, want 0", allocs)
		}
	})
}
