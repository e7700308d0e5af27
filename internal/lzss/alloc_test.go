package lzss

import (
	"bytes"
	"encoding/binary"
	"testing"

	"streamgpu/internal/pool"
)

// TestMatcherFindMatchesAllocs pins the reusable matcher's steady state to
// zero heap allocations per batch.
func TestMatcherFindMatchesAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	input := textLike(64<<10, 1)
	startPos := []int32{0, 16 << 10, 40 << 10}
	ml := make([]int32, len(input))
	mo := make([]int32, len(input))
	m := NewMatcher()
	m.FindMatches(input, startPos, ml, mo) // warm the prev table
	allocs := testing.AllocsPerRun(10, func() {
		m.FindMatches(input, startPos, ml, mo)
	})
	if allocs != 0 {
		t.Fatalf("Matcher.FindMatches allocates %v per batch, want 0", allocs)
	}
}

// TestMatcherAppendCompressAllocs pins the standalone block encoder: with a
// warm matcher and a recycled destination it must not allocate.
func TestMatcherAppendCompressAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	block := textLike(8<<10, 2)
	m := NewMatcher()
	dst := m.AppendCompress(nil, block) // warm scratch and learn output size
	allocs := testing.AllocsPerRun(10, func() {
		dst = m.AppendCompress(dst[:0], block)
	})
	if allocs != 0 {
		t.Fatalf("Matcher.AppendCompress allocates %v per block, want 0", allocs)
	}
}

// TestAppendEncodeMatchesEncodeFromMatches checks the appending encoder,
// reading the whole batch's matches in the kernel's little-endian layout at
// batch-absolute indices, emits what EncodeFromMatches builds block by block
// from the host-form arrays.
func TestAppendEncodeMatchesEncodeFromMatches(t *testing.T) {
	input := textLike(32<<10, 3)
	startPos := []int32{0, 8 << 10, 20 << 10}
	mlHost := make([]int32, len(input))
	moHost := make([]int32, len(input))
	FindMatches(input, startPos, mlHost, moHost)
	ml := make([]byte, 4*len(input))
	mo := make([]byte, 4*len(input))
	for i := range mlHost {
		binary.LittleEndian.PutUint32(ml[4*i:], uint32(mlHost[i]))
		binary.LittleEndian.PutUint32(mo[4*i:], uint32(moHost[i]))
	}
	for k := range startPos {
		lo := int(startPos[k])
		hi := blockEnd(startPos, k, len(input))
		want := EncodeFromMatches(input, lo, hi, mlHost, moHost)
		got := AppendEncode(nil, input, lo, hi, ml, mo)
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: AppendEncode differs from EncodeFromMatches", k)
		}
		// Appending after a prefix must leave the prefix intact.
		pre := append([]byte{0xAA, 0xBB}, nil...)
		full := AppendEncode(pre, input, lo, hi, ml, mo)
		if !bytes.Equal(full[:2], []byte{0xAA, 0xBB}) || !bytes.Equal(full[2:], want) {
			t.Fatalf("block %d: AppendEncode with prefix corrupted output", k)
		}
	}
}

// TestMatcherReuseAcrossInputs checks a matcher reused across different
// inputs matches the reference each time (the epoch stamping must isolate
// runs).
func TestMatcherReuseAcrossInputs(t *testing.T) {
	m := NewMatcher()
	for trial := 0; trial < 5; trial++ {
		input := textLike(4<<10+trial*997, int64(trial))
		startPos := []int32{0, int32(len(input) / 2)}
		ml := make([]int32, len(input))
		mo := make([]int32, len(input))
		m.FindMatches(input, startPos, ml, mo)
		refML := make([]int32, len(input))
		refMO := make([]int32, len(input))
		FindMatchesRef(input, startPos, refML, refMO)
		for i := range input {
			if ml[i] != refML[i] || mo[i] != refMO[i] {
				t.Fatalf("trial %d pos %d: matcher (%d,%d) != ref (%d,%d)",
					trial, i, ml[i], mo[i], refML[i], refMO[i])
			}
		}
	}
}
