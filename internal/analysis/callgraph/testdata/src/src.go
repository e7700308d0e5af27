// Package fixture exercises every call-resolution path of the graph
// builder: static calls, go/defer sites, CHA interface dispatch, method
// values, function-valued variables, struct fields holding stage
// functions, and parameter binding — plus the shapes the summary table
// must solve: mutual recursion and calls through function literals.
package fixture

type Runner interface{ Run() }

type A struct{}

func (A) Run() {}

type B struct{}

func (*B) Run() {}

func viaInterface(r Runner) {
	r.Run()
}

func work() {}

func static() { work() }

func spawns() { go work() }

func deferred() { defer work() }

// Stage mirrors the ff/core pattern: a pipeline stage carries its body as
// a function-typed field.
type Stage struct {
	fn func()
}

func viaField() {
	s := Stage{fn: work}
	s.fn()
}

func methodValue(a A) {
	f := a.Run
	f()
}

func viaVar() {
	f := work
	f()
}

func viaLitVar() {
	g := func() {}
	g()
}

func apply(f func()) { f() }

func passes() { apply(work) }

// ping and pong recurse into each other, and only pong calls work: a
// summary flowing around the cycle reaches ping in the second round.
func ping(n int) {
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) {
	if n > 0 {
		ping(n - 1)
	}
	work()
}

// viaLit reaches work only through the literal it calls, so its summary
// depends on the literal's.
func viaLit() {
	h := func() { work() }
	h()
}
