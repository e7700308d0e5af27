package ff

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSPSCBasic(t *testing.T) {
	q := NewSPSC[int](4, false)
	if q.Cap() != 4 {
		t.Errorf("Cap = %d, want 4", q.Cap())
	}
	for i := 0; i < 4; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.TryPush(99) {
		t.Fatal("push to full queue should fail")
	}
	for i := 0; i < 4; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v; want %d,true", v, ok, i)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty queue should fail")
	}
}

func TestSPSCCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 2}, {2, 2}, {3, 4}, {5, 8}, {512, 512}, {513, 1024}} {
		if got := NewSPSC[int](tc.in, false).Cap(); got != tc.want {
			t.Errorf("NewSPSC(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSPSCConcurrentTransfer(t *testing.T) {
	const n = 100000
	q := NewSPSC[int](64, false)
	var sum int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			q.Push(i)
		}
	}()
	go func() {
		defer wg.Done()
		prev := 0
		for i := 0; i < n; i++ {
			v := q.Pop()
			if v != prev+1 {
				t.Errorf("out of order: got %d after %d", v, prev)
				return
			}
			prev = v
			sum += int64(v)
		}
	}()
	wg.Wait()
	if want := int64(n) * (n + 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

func TestSPSCSpinningMode(t *testing.T) {
	const n = 10000
	q := NewSPSC[int](8, true)
	var wg sync.WaitGroup
	wg.Add(2)
	got := 0
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.Push(i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if q.Pop() == i {
				got++
			}
		}
	}()
	wg.Wait()
	if got != n {
		t.Errorf("received %d in-order items, want %d", got, n)
	}
}

func TestPipelineThreeStages(t *testing.T) {
	var out []int
	p := NewPipeline(
		SliceSource([]int{1, 2, 3, 4, 5}),
		F(func(task any) any { return task.(int) * 10 }),
		Sink(func(task any) { out = append(out, task.(int)) }),
	)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{10, 20, 30, 40, 50}
	if len(out) != len(want) {
		t.Fatalf("out = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestPipelineGoOnFilters(t *testing.T) {
	var out []int
	p := NewPipeline(
		SliceSource([]int{1, 2, 3, 4, 5, 6}),
		F(func(task any) any {
			if task.(int)%2 == 0 {
				return task
			}
			return GoOn
		}),
		Sink(func(task any) { out = append(out, task.(int)) }),
	)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != 2 || out[2] != 6 {
		t.Fatalf("out = %v, want evens", out)
	}
}

func TestPipelineEarlyEOS(t *testing.T) {
	var out []int
	p := NewPipeline(
		SliceSource(make([]int, 1000)), // plenty of input
		F(func(task any) any { return EOS }),
		Sink(func(task any) { out = append(out, task.(int)) }),
	)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("early EOS should suppress all output, got %d items", len(out))
	}
}

// multiOut emits each input twice via SendOut.
type multiOut struct {
	NodeBase
}

func (m *multiOut) Svc(task any) any {
	m.SendOut(task)
	m.SendOut(task)
	return GoOn
}

func TestSendOutMultipleOutputs(t *testing.T) {
	var out []int
	p := NewPipeline(
		SliceSource([]int{1, 2, 3}),
		&multiOut{},
		Sink(func(task any) { out = append(out, task.(int)) }),
	)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 2, 2, 3, 3}
	if len(out) != len(want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestFarmUnorderedProcessesAll(t *testing.T) {
	const n = 500
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	var mu sync.Mutex
	seen := make(map[int]bool)
	workers := make([]Node, 4)
	for i := range workers {
		workers[i] = F(func(task any) any { return task.(int) + 1000 })
	}
	p := NewPipeline(
		SliceSource(items),
		NewFarm(workers),
		Sink(func(task any) {
			mu.Lock()
			seen[task.(int)] = true
			mu.Unlock()
		}),
	)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("saw %d results, want %d", len(seen), n)
	}
	for i := 0; i < n; i++ {
		if !seen[i+1000] {
			t.Fatalf("missing result for input %d", i)
		}
	}
}

func TestFarmOrderedPreservesOrder(t *testing.T) {
	const n = 300
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	workers := make([]Node, 5)
	for i := range workers {
		workers[i] = F(func(task any) any { return task })
	}
	var out []int
	p := NewPipeline(
		SliceSource(items),
		NewFarm(workers),
		Sink(func(task any) { out = append(out, task.(int)) }),
	)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d: ordered farm violated order", i, v)
		}
	}
}

func TestFarmOrderedWithGoOn(t *testing.T) {
	// Workers dropping items (GoOn) must not stall the reorder buffer.
	const n = 100
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	workers := make([]Node, 3)
	for i := range workers {
		workers[i] = F(func(task any) any {
			if task.(int)%3 == 0 {
				return GoOn
			}
			return task
		})
	}
	var out []int
	p := NewPipeline(
		SliceSource(items),
		NewFarm(workers),
		Sink(func(task any) { out = append(out, task.(int)) }),
	)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	prev := -1
	count := 0
	for _, v := range out {
		if v%3 == 0 {
			t.Fatalf("dropped item %d leaked through", v)
		}
		if v <= prev {
			t.Fatalf("order violated: %d after %d", v, prev)
		}
		prev = v
		count++
	}
	if want := n - (n+2)/3; count != want {
		t.Fatalf("got %d items, want %d", count, want)
	}
}

// mixedOut answers input i with nothing, one output or three SendOuts,
// by i mod 3; slow makes it sleep on every input.
type mixedOut struct {
	NodeBase
	slow bool
}

func (m *mixedOut) Svc(task any) any {
	if m.slow {
		time.Sleep(100 * time.Microsecond)
	}
	i := task.(int)
	switch i % 3 {
	case 0:
		return GoOn
	case 1:
		return i
	}
	for k := 0; k < 3; k++ {
		m.SendOut(1000*i + k)
	}
	return GoOn
}

// A farm whose workers mix no output, one output and several, with one
// worker slow enough that the others run ahead, delivers exactly what one
// sequential worker would, in the same order.
func TestFarmMixedOutputsKeepOrder(t *testing.T) {
	const n = 400
	var want []int
	seqw := &mixedOut{}
	seqw.setOut(func(v any) { want = append(want, v.(int)) })
	for i := 0; i < n; i++ {
		if r := seqw.Svc(i); r != GoOn {
			want = append(want, r.(int))
		}
	}
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	workers := []Node{&mixedOut{slow: true}, &mixedOut{}, &mixedOut{}, &mixedOut{}}
	var got []int
	p := NewPipeline(
		SliceSource(items),
		NewFarm(workers),
		Sink(func(task any) { got = append(got, task.(int)) }),
	).SetQueueCap(8)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// A warm farm moves items without allocating per item: the mallocs of a
// run grow by (almost) nothing when the stream is four times as long.
// Pointer items keep the source and the sink allocation-free.
func TestFarmNoAllocsPerItem(t *testing.T) {
	const n = 2000
	v := new(int)
	items := make([]*int, 4*n)
	for i := range items {
		items[i] = v
	}
	run := func(k int) {
		workers := make([]Node, 4)
		for w := range workers {
			workers[w] = F(func(task any) any { return task })
		}
		p := NewPipeline(SliceSource(items[:k]), NewFarm(workers), Sink(func(any) {}))
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
	}
	short := testing.AllocsPerRun(5, func() { run(n) })
	long := testing.AllocsPerRun(5, func() { run(4 * n) })
	if per := (long - short) / (3 * n); per > 0.05 {
		t.Errorf("%.0f mallocs for %d items, %.0f for %d: %.2f per item, want 0",
			short, n, long, 4*n, per)
	}
}

func TestFarmAsLastStage(t *testing.T) {
	var n atomic.Int32
	workers := make([]Node, 3)
	for i := range workers {
		workers[i] = F(func(task any) any {
			n.Add(1)
			return GoOn
		})
	}
	p := NewPipeline(SliceSource(make([]int, 42)), NewFarm(workers))
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 42 {
		t.Errorf("workers processed %d, want 42", n.Load())
	}
}

func TestPipelineInvalidStagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-Node stage should panic")
		}
	}()
	NewPipeline("not a node")
}

func TestEmptyPipelinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty pipeline should panic")
		}
	}()
	NewPipeline()
}

// A farm forwards its input, so it cannot open a pipeline: Run panics
// naming the misplaced farm rather than running it without a source.
func TestFarmFirstStagePanics(t *testing.T) {
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "first stage") {
			t.Fatalf("panic = %v, want one naming the farm as first stage", r)
		}
	}()
	p := NewPipeline(NewFarm([]Node{F(func(task any) any { return task })}), Sink(func(any) {}))
	err := p.Run()
	t.Fatalf("Run returned %v without panicking", err)
}

func TestFarmNoWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("farm with no workers should panic")
		}
	}()
	NewFarm(nil)
}

// Property: an ordered farm is an identity transformation on any input
// slice, for any worker count and queue capacity.
func TestOrderedFarmIdentityProperty(t *testing.T) {
	f := func(vals []int32, wSeed, qSeed uint8) bool {
		nw := int(wSeed)%6 + 1
		qc := int(qSeed)%30 + 2
		workers := make([]Node, nw)
		for i := range workers {
			workers[i] = F(func(task any) any { return task })
		}
		var out []int32
		p := NewPipeline(
			SliceSource(vals),
			NewFarm(workers),
			Sink(func(task any) { out = append(out, task.(int32)) }),
		).SetQueueCap(qc)
		if err := p.Run(); err != nil {
			return false
		}
		if len(out) != len(vals) {
			return false
		}
		for i := range vals {
			if out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPipelineItemThroughput(b *testing.B) {
	n := b.N
	i := 0
	p := NewPipeline(
		Source(func() (any, bool) {
			if i >= n {
				return nil, false
			}
			i++
			return i, true
		}),
		F(func(task any) any { return task }),
		Sink(func(any) {}),
	)
	b.ResetTimer()
	if err := p.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFarm4Workers(b *testing.B) {
	n := b.N
	i := 0
	workers := make([]Node, 4)
	for w := range workers {
		workers[w] = F(func(task any) any { return task })
	}
	p := NewPipeline(
		Source(func() (any, bool) {
			if i >= n {
				return nil, false
			}
			i++
			return i, true
		}),
		NewFarm(workers),
		Sink(func(any) {}),
	)
	b.ResetTimer()
	if err := p.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSPSCPingPong(b *testing.B) {
	q := NewSPSC[int](512, true)
	done := make(chan struct{})
	go func() {
		for i := 0; i < b.N; i++ {
			q.Pop()
		}
		close(done)
	}()
	for i := 0; i < b.N; i++ {
		q.Push(i)
	}
	<-done
}
