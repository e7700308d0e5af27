package dataflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"testing"

	"streamgpu/internal/analysis/dataflow"
)

// parseBody parses src (a full file) and returns the body of its first
// function declaration.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "t.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fd.Body
		}
	}
	t.Fatal("no function in source")
	return nil
}

// names is a set of identifier names; nil means "top" (every name), the
// identity of the intersection join below.
type names map[string]bool

func (s names) sorted() []string {
	var out []string
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// assignedIn collects the names assigned by one CFG node.
func assignedIn(n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		as, ok := nd.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
				out = append(out, id.Name)
			}
		}
		return true
	})
	return out
}

// definitelyAssigned is the canonical must-analysis: a name is in the fact
// only if every path to the point assigns it. Init is nil ("top"), the
// identity of the intersection.
func definitelyAssigned(g *dataflow.CFG) dataflow.Result[names] {
	return dataflow.Forward(g, dataflow.Problem[names]{
		Init:     func() names { return nil },
		Boundary: func() names { return names{} },
		Join: func(a, b names) names {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			out := names{}
			for n := range a {
				if b[n] {
					out[n] = true
				}
			}
			return out
		},
		Equal: namesEqual,
		Transfer: func(n ast.Node, in names) names {
			assigned := assignedIn(n)
			if len(assigned) == 0 {
				return in
			}
			out := names{}
			for k := range in {
				out[k] = true
			}
			for _, k := range assigned {
				out[k] = true
			}
			return out
		},
	})
}

// maybeAssigned is the union dual: a name is in the fact if some path
// assigns it. Init is the empty set, the identity of union.
func maybeAssigned(g *dataflow.CFG) dataflow.Result[names] {
	return dataflow.Forward(g, dataflow.Problem[names]{
		Init:     func() names { return names{} },
		Boundary: func() names { return names{} },
		Join: func(a, b names) names {
			out := names{}
			for n := range a {
				out[n] = true
			}
			for n := range b {
				out[n] = true
			}
			return out
		},
		Equal: namesEqual,
		Transfer: func(n ast.Node, in names) names {
			out := names{}
			for k := range in {
				out[k] = true
			}
			for _, k := range assignedIn(n) {
				out[k] = true
			}
			return out
		},
	})
}

func namesEqual(a, b names) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for n := range a {
		if !b[n] {
			return false
		}
	}
	return true
}

func atExit(t *testing.T, src string, solve func(*dataflow.CFG) dataflow.Result[names]) names {
	t.Helper()
	g := dataflow.New(parseBody(t, src))
	res := solve(g)
	return res.In[g.Exit]
}

func expect(t *testing.T, got names, want ...string) {
	t.Helper()
	g := got.sorted()
	sort.Strings(want)
	if len(g) != len(want) {
		t.Fatalf("fact = %v, want %v", g, want)
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("fact = %v, want %v", g, want)
		}
	}
}

func TestMustBranchBothPaths(t *testing.T) {
	got := atExit(t, `package p
func f(c bool) {
	var x, y int
	if c {
		x = 1
		y = 1
	} else {
		x = 2
	}
	_ = x
	_ = y
}`, definitelyAssigned)
	// x is assigned on both arms, y only on one: the must-join keeps x
	// and drops y.
	expect(t, got, "x")
}

func TestMustLoopMayRunZeroTimes(t *testing.T) {
	got := atExit(t, `package p
func f(n int) {
	var x int
	for i := 0; i < n; i++ {
		x = 1
	}
	_ = x
}`, definitelyAssigned)
	// The loop body may never run: x must not be definitely assigned.
	// This is the classic must-analysis convergence case: seeding loop
	// blocks with the empty set instead of top would wrongly erase i too.
	expect(t, got, "i")
}

func TestMustInfiniteLoopWithBreak(t *testing.T) {
	got := atExit(t, `package p
func f(c bool) {
	var x int
	for {
		x = 1
		if c {
			break
		}
	}
	_ = x
}`, definitelyAssigned)
	// The only way out is the break after the assignment: x IS definite.
	expect(t, got, "x")
}

func TestMayLoopAndSwitch(t *testing.T) {
	got := atExit(t, `package p
func f(n int) {
	var x, y, z int
	for i := 0; i < n; i++ {
		switch {
		case n > 1:
			x = 1
		default:
			y = 1
		}
	}
	if n > 2 {
		z = 1
	}
	_, _, _ = x, y, z
}`, maybeAssigned)
	expect(t, got, "i", "x", "y", "z")
}

func TestNestedLoopsConverge(t *testing.T) {
	// Nested loops with cross-assignments: the solver must reach a fixed
	// point (the block-visit cap would panic the test binary through a
	// wrong result, not a hang, so the assertion is on the answer).
	got := atExit(t, `package p
func f(n int) {
	var a, b int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a = b
		}
		b = a
	}
	_, _ = a, b
}`, maybeAssigned)
	expect(t, got, "a", "b", "i", "j")
}

func TestDefersCollected(t *testing.T) {
	g := dataflow.New(parseBody(t, `package p
func f() {
	defer one()
	if true {
		defer two()
	}
}`))
	if len(g.Defers) != 2 {
		t.Fatalf("Defers = %d, want 2", len(g.Defers))
	}
}
