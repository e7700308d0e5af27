package bench

import "testing"

var allocSink []byte

// TestHostAllocsCountsIntermittent holds the allocation pins to a mean: a
// function that allocates on every other call reads half an allocation per
// call, not zero.
func TestHostAllocsCountsIntermittent(t *testing.T) {
	calls := 0
	fn := func() {
		calls++
		if calls%2 == 0 {
			allocSink = make([]byte, 64)
		}
	}
	if got := hostAllocs(8, fn); got != 0.5 {
		t.Errorf("hostAllocs = %v, want 0.5", got)
	}
	if got := hostAllocs(8, func() {}); got != 0 {
		t.Errorf("hostAllocs of an empty call = %v, want 0", got)
	}
}
