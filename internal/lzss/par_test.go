package lzss

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"streamgpu/internal/pool"
)

// parRef computes the sequential reference result for an equivalence check.
func parRef(input []byte, startPos []int32) (ml, mo []int32) {
	ml = make([]int32, len(input))
	mo = make([]int32, len(input))
	m := NewMatcher()
	m.FindMatches(input, startPos, ml, mo)
	return ml, mo
}

// checkParEquivalence asserts FindMatchesPar is bit-exact against the
// sequential matcher for every lane count 1..maxLanes.
func checkParEquivalence(t *testing.T, name string, input []byte, startPos []int32) {
	t.Helper()
	refML, refMO := parRef(input, startPos)
	for lanes := 1; lanes <= maxLanes; lanes++ {
		gotML := make([]int32, len(input))
		gotMO := make([]int32, len(input))
		// Poison the output arrays: any byte the parallel path fails to
		// write (a lost block between lane cuts) must show up, not hide
		// behind a zero the reference also wrote.
		for i := range gotML {
			gotML[i] = -7
			gotMO[i] = -7
		}
		FindMatchesPar(lanes, input, startPos, gotML, gotMO)
		for i := range input {
			if gotML[i] != refML[i] || gotMO[i] != refMO[i] {
				t.Fatalf("%s lanes=%d pos %d: par (%d,%d) != seq (%d,%d)",
					name, lanes, i, gotML[i], gotMO[i], refML[i], refMO[i])
			}
		}
	}
}

// TestFindMatchesParEquivalenceStructured covers the data shapes of the
// sequential equivalence harness plus the hostile startPos layouts the lane
// partitioner must survive: a single block spanning the whole batch, a block
// per byte, an empty trailing block, and more blocks than lanes by one.
func TestFindMatchesParEquivalenceStructured(t *testing.T) {
	data := textLike(40_000, 11)
	layouts := map[string][]int32{
		"block==batch":    {0},
		"thirds":          {0, int32(len(data) / 3), int32(len(data) / 2)},
		"empty-tail":      {0, int32(len(data) / 2), int32(len(data))},
		"nine-blocks":     {0, 1, 2, 3, 5000, 10000, 20000, 30000, 39999},
		"window-straddle": {0, WindowSize - 1, WindowSize, WindowSize + 1, 3 * WindowSize},
	}
	for name, sp := range layouts {
		t.Run(name, func(t *testing.T) {
			checkParEquivalence(t, name, data, sp)
		})
	}

	t.Run("single-byte-blocks", func(t *testing.T) {
		small := periodic(300, 5)
		sp := make([]int32, len(small))
		for i := range sp {
			sp[i] = int32(i)
		}
		checkParEquivalence(t, "single-byte-blocks", small, sp)
	})
	t.Run("empty-input", func(t *testing.T) {
		checkParEquivalence(t, "empty-input", nil, nil)
	})
	t.Run("shapes", func(t *testing.T) {
		shapes := map[string][]byte{
			"random":  randomBytes(20_000, 12),
			"zeros":   make([]byte, 8_000),
			"period7": periodic(8_000, 7),
		}
		for name, d := range shapes {
			sp := []int32{0}
			for p := 777; p < len(d); p += 777 {
				sp = append(sp, int32(p))
			}
			checkParEquivalence(t, name, d, sp)
		}
	})
}

// TestFindMatchesParFuzzCorpus replays the committed dedup fuzz seeds (the
// repo's only checked-in hostile byte corpus) as raw match-finding input.
func TestFindMatchesParFuzzCorpus(t *testing.T) {
	dir := filepath.Join("..", "dedup", "testdata", "fuzz", "FuzzRestore")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no fuzz corpus: %v", err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			continue
		}
		sp := []int32{0}
		for p := 7; p < len(data); p += 13 {
			sp = append(sp, int32(p))
		}
		checkParEquivalence(t, e.Name(), data, sp)
	}
}

// TestFindMatchesParProperty is the randomized equivalence property: for
// arbitrary small-alphabet data, arbitrary block layouts, and arbitrary lane
// counts, the parallel result is bit-exact.
func TestFindMatchesParProperty(t *testing.T) {
	f := func(seed int64, sizeSeed uint16, alphaSeed, laneSeed uint8) bool {
		size := int(sizeSeed)%6000 + 1
		alpha := int(alphaSeed)%8 + 2
		lanes := int(laneSeed)%maxLanes + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(rng.Intn(alpha))
		}
		startPos := []int32{0}
		for p := rng.Intn(500) + 1; p < size; p += rng.Intn(2000) + 1 {
			startPos = append(startPos, int32(p))
		}
		refML, refMO := parRef(data, startPos)
		gotML := make([]int32, size)
		gotMO := make([]int32, size)
		FindMatchesPar(lanes, data, startPos, gotML, gotMO)
		for i := 0; i < size; i++ {
			if gotML[i] != refML[i] || gotMO[i] != refMO[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLaneCutPartition checks the byte-balanced partitioner yields a
// monotone, complete cover of the block index space whose interior cuts are
// exact. Blocks every 600 bytes of 48 000 put some lane targets exactly on a
// block start (the boundary case of the search); every 617 bytes, none.
func TestLaneCutPartition(t *testing.T) {
	data := textLike(48_000, 3)
	for _, spacing := range []int{617, 600} {
		startPos := []int32{0}
		for p := spacing; p < len(data); p += spacing {
			startPos = append(startPos, int32(p))
		}
		for lanes := 1; lanes <= maxLanes; lanes++ {
			prev := 0
			if laneCut(0, lanes, data, startPos) != 0 {
				t.Fatalf("spacing %d lanes=%d: laneCut(0) != 0", spacing, lanes)
			}
			for i := 1; i <= lanes; i++ {
				c := laneCut(i, lanes, data, startPos)
				if c < prev {
					t.Fatalf("spacing %d lanes=%d: cut %d=%d below previous %d", spacing, lanes, i, c, prev)
				}
				// Interior cuts are exact: the first block starting at or
				// past the lane's byte share.
				target := int32(len(data) * i / lanes)
				if i < lanes && (c == len(startPos) || startPos[c] < target || (c > 0 && startPos[c-1] >= target)) {
					t.Fatalf("spacing %d lanes=%d: cut %d=%d is not the first block at or past byte %d", spacing, lanes, i, c, target)
				}
				prev = c
			}
			if prev != len(startPos) {
				t.Fatalf("spacing %d lanes=%d: final cut %d != %d blocks", spacing, lanes, prev, len(startPos))
			}
		}
	}
}

// TestFindMatchesParAllocs pins the warm lane fan-out to zero heap
// allocations per batch: the lane tasks, their spawn closures, and the lane
// matchers all come from pools, and goroutine start/join reuses runtime
// structures once warm.
func TestFindMatchesParAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	input := textLike(256<<10, 21)
	startPos := []int32{0}
	for p := 2048; p < len(input); p += 2048 {
		startPos = append(startPos, int32(p))
	}
	ml := make([]int32, len(input))
	mo := make([]int32, len(input))
	for _, lanes := range []int{2, 4} {
		// Warm pools, matcher tables and the runtime's goroutine free list.
		for i := 0; i < 3; i++ {
			FindMatchesPar(lanes, input, startPos, ml, mo)
		}
		allocs := testing.AllocsPerRun(10, func() {
			FindMatchesPar(lanes, input, startPos, ml, mo)
		})
		if allocs != 0 {
			t.Fatalf("FindMatchesPar(lanes=%d) allocates %v per batch, want 0", lanes, allocs)
		}
	}
}

// laneRecorder is a LaneBody that counts how often each block is visited
// and records which matcher ran each lane.
type laneRecorder struct {
	visits []atomic.Int32
	mu     sync.Mutex
	lanes  map[int]*Matcher
	spans  map[int][2]int
}

func (r *laneRecorder) RunLane(m *Matcher, lane, k0, k1 int) {
	for k := k0; k < k1; k++ {
		r.visits[k].Add(1)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.lanes[lane]; dup {
		r.lanes[-1] = m // flags a lane number used twice
	}
	r.lanes[lane] = m
	r.spans[lane] = [2]int{k0, k1}
}

// TestRunLanesCoversEveryBlockOnce checks the lane runner's contract for
// every lane count and several block layouts: each block runs in exactly one
// lane, lanes are numbered 0..K-1 over contiguous ranges in block order,
// lane 0 runs on the caller's matcher and every other lane on a distinct
// pooled one, and the lane count never exceeds the request, maxLanes or the
// block count.
func TestRunLanesCoversEveryBlockOnce(t *testing.T) {
	data := textLike(30_000, 5)
	layouts := map[string][]int32{
		"one-block":   {0},
		"two-blocks":  {0, 29_000},
		"even":        {0, 3000, 6000, 9000, 12000, 15000, 18000, 21000, 24000, 27000},
		"skewed":      {0, 1, 2, 3, 4, 20_000},
		"empty-input": nil,
	}
	for name, sp := range layouts {
		input := data
		if sp == nil {
			input = nil
		}
		for lanes := -1; lanes <= maxLanes+2; lanes++ {
			caller := NewMatcher()
			r := &laneRecorder{visits: make([]atomic.Int32, len(sp)), lanes: map[int]*Matcher{}, spans: map[int][2]int{}}
			RunLanes(lanes, caller, input, sp, r)
			for k := range sp {
				if v := r.visits[k].Load(); v != 1 {
					t.Fatalf("%s lanes=%d: block %d ran %d times", name, lanes, k, v)
				}
			}
			if _, dup := r.lanes[-1]; dup {
				t.Fatalf("%s lanes=%d: a lane number ran twice", name, lanes)
			}
			if r.lanes[0] != caller {
				t.Fatalf("%s lanes=%d: lane 0 did not run on the caller's matcher", name, lanes)
			}
			want := max(1, min(lanes, maxLanes, len(sp)))
			if len(r.lanes) > want {
				t.Fatalf("%s lanes=%d: %d lanes ran, at most %d allowed", name, lanes, len(r.lanes), want)
			}
			seen := map[*Matcher]bool{}
			next := 0
			for lane := 0; lane < len(r.lanes); lane++ {
				m, ok := r.lanes[lane]
				if !ok || seen[m] {
					t.Fatalf("%s lanes=%d: lanes not numbered 0..%d on distinct matchers", name, lanes, len(r.lanes)-1)
				}
				seen[m] = true
				if sp := r.spans[lane]; sp[0] != next || (len(r.lanes) > 1 && sp[1] <= sp[0]) {
					t.Fatalf("%s lanes=%d: lane %d spans %v, want a non-empty range from %d", name, lanes, lane, sp, next)
				}
				next = r.spans[lane][1]
			}
			if next != len(sp) {
				t.Fatalf("%s lanes=%d: lanes end at block %d of %d", name, lanes, next, len(sp))
			}
		}
	}
}
