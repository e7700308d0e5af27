package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPipelineBasic(t *testing.T) {
	var out []int
	var mu sync.Mutex
	ts := NewToStream().
		Stage(func(item any, emit func(any)) { emit(item.(int) * 3) }).
		Stage(func(item any, emit func(any)) {
			mu.Lock()
			out = append(out, item.(int))
			mu.Unlock()
		})
	err := ts.Run(func(emit func(any)) {
		for i := 1; i <= 4; i++ {
			emit(i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("out = %v", out)
	}
	for i, v := range out {
		if v != (i+1)*3 {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestReplicatedStageOrdered(t *testing.T) {
	const n = 200
	var out []int
	ts := NewToStream().
		Stage(func(item any, emit func(any)) { emit(item) }, Replicate(6)).
		Stage(func(item any, emit func(any)) { out = append(out, item.(int)) })
	err := ts.Run(func(emit func(any)) {
		for i := 0; i < n; i++ {
			emit(i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d items", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d: order lost in a replicated stage", i, v)
		}
	}
}

func TestReplicatedStageUnorderedCompletes(t *testing.T) {
	const n = 500
	var count atomic.Int64
	ts := NewToStream().
		Stage(func(item any, emit func(any)) { emit(item) }, Replicate(8)).
		Stage(func(item any, emit func(any)) { count.Add(1) })
	err := ts.Run(func(emit func(any)) {
		for i := 0; i < n; i++ {
			emit(i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != n {
		t.Errorf("processed %d, want %d", count.Load(), n)
	}
}

func TestWorkerPerReplicaLifecycle(t *testing.T) {
	// The factory runs once per replica, and each replica's closure keeps
	// its own count without locking: the items are split across them.
	var counts []*int
	ts := NewToStream().
		StageWorkers(func() StageFunc {
			n := new(int)
			counts = append(counts, n)
			return func(item any, emit func(any)) {
				*n++
				emit(item)
			}
		}, Replicate(5)).
		Stage(func(any, func(any)) {})
	err := ts.Run(func(emit func(any)) {
		for i := 0; i < 50; i++ {
			emit(i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 5 {
		t.Fatalf("factory called %d times, want 5 (one per replica)", len(counts))
	}
	for r, n := range counts {
		// The farm deals round-robin, so every replica gets 50/5 items.
		if *n != 10 {
			t.Errorf("replica %d processed %d items, want 10", r, *n)
		}
	}
}

func TestMultiEmit(t *testing.T) {
	var count atomic.Int64
	ts := NewToStream().
		Stage(func(item any, emit func(any)) {
			emit(item)
			emit(item)
		}).
		Stage(func(any, func(any)) { count.Add(1) })
	err := ts.Run(func(emit func(any)) {
		for i := 0; i < 10; i++ {
			emit(i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 20 {
		t.Errorf("got %d items, want 20", count.Load())
	}
}

func TestValidateNoStages(t *testing.T) {
	ts := NewToStream()
	if err := ts.Validate(); err == nil {
		t.Fatal("ToStream without Stage must be invalid (SPar rule)")
	}
}

func TestValidateBadReplicate(t *testing.T) {
	ts := NewToStream().Stage(func(any, func(any)) {}, Replicate(0))
	if err := ts.Validate(); err == nil {
		t.Fatal("Replicate(0) must be invalid")
	}
}

func TestValidateInputChaining(t *testing.T) {
	ok := NewToStream(Input("dim", "niter")).
		Stage(func(any, func(any)) {}, Input("dim"), Output("img")).
		Stage(func(any, func(any)) {}, Input("img", "niter"))
	if err := ok.Validate(); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
	bad := NewToStream(Input("dim")).
		Stage(func(any, func(any)) {}, Input("img")) // img never produced
	if err := bad.Validate(); err == nil {
		t.Error("consuming an unproduced variable should fail validation")
	}
}

func TestRunValidates(t *testing.T) {
	ts := NewToStream() // no stages
	if err := ts.Run(func(emit func(any)) {}); err == nil {
		t.Fatal("Run must validate first")
	}
}

func TestGraphString(t *testing.T) {
	ts := NewToStream().
		Stage(func(any, func(any)) {}, Replicate(10), Name("sha1")).
		Stage(func(any, func(any)) {}, Name("write"))
	g := ts.Graph()
	s := g.String()
	if !strings.Contains(s, "ToStream") || !strings.Contains(s, "sha1 ×10") {
		t.Errorf("graph string = %q", s)
	}
	if len(g.Stages) != 3 {
		t.Errorf("stages = %d, want 3", len(g.Stages))
	}
}

func TestStageDefaultNames(t *testing.T) {
	ts := NewToStream().
		Stage(func(any, func(any)) {}).
		Stage(func(any, func(any)) {})
	g := ts.Graph()
	if g.Stages[1].Name != "S1" || g.Stages[2].Name != "S2" {
		t.Errorf("default names = %v", g.Stages)
	}
}

// Property: for any input and worker count, a region behaves as an
// identity pipeline — the SPar ordering guarantee.
func TestOrderedIdentityProperty(t *testing.T) {
	f := func(vals []int16, rSeed uint8) bool {
		r := int(rSeed)%7 + 1
		var out []int16
		ts := NewToStream().
			Stage(func(item any, emit func(any)) { emit(item) }, Replicate(r)).
			Stage(func(item any, emit func(any)) { out = append(out, item.(int16)) })
		err := ts.Run(func(emit func(any)) {
			for _, v := range vals {
				emit(v)
			}
		})
		if err != nil || len(out) != len(vals) {
			return false
		}
		for i := range vals {
			if out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkToStreamThroughput(b *testing.B) {
	n := b.N
	ts := NewToStream().
		Stage(func(item any, emit func(any)) { emit(item) }, Replicate(4)).
		Stage(func(any, func(any)) {})
	b.ResetTimer()
	if err := ts.Run(func(emit func(any)) {
		for i := 0; i < n; i++ {
			emit(i)
		}
	}); err != nil {
		b.Fatal(err)
	}
}
