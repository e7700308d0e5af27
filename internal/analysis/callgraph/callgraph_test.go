package callgraph_test

import (
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"streamgpu/internal/analysis"
	"streamgpu/internal/analysis/callgraph"
)

// loadPkg type-checks the fixture package.
func loadPkg(t *testing.T) *analysis.Package {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.SharedLoader(cwd).CheckDir(filepath.Join(cwd, "testdata/src"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return pkg
}

// load type-checks the fixture package and builds its call graph.
func load(t *testing.T) *callgraph.Graph {
	t.Helper()
	return callgraph.Build([]*analysis.Package{loadPkg(t)})
}

// label renders one edge as "Callee/kind" with +go/+defer markers, using
// "Type.Method" for methods and "lit" for literals.
func label(e *callgraph.Edge) string {
	name := "lit"
	if fn := e.Callee.Func; fn != nil {
		name = fn.Name()
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
		}
	}
	s := name + "/" + e.Kind.String()
	if e.Go {
		s += "+go"
	}
	if e.Defer {
		s += "+defer"
	}
	return s
}

func TestResolution(t *testing.T) {
	g := load(t)
	cases := []struct {
		caller string
		want   []string
	}{
		{"static", []string{"work/static"}},
		{"spawns", []string{"work/static+go"}},
		{"deferred", []string{"work/static+defer"}},
		// CHA: every declared type whose method set satisfies the
		// interface gets an edge, value and pointer receivers alike.
		{"viaInterface", []string{"A.Run/interface", "B.Run/interface"}},
		// Stage-function field: the composite literal's store is followed
		// through the field to the function it holds.
		{"viaField", []string{"work/fieldvalue"}},
		// Method value bound to a variable.
		{"methodValue", []string{"A.Run/funcvalue"}},
		{"viaVar", []string{"work/funcvalue"}},
		{"viaLitVar", []string{"lit/funcvalue"}},
		// Parameter binding: apply's f() resolves to what callers pass.
		{"apply", []string{"work/funcvalue"}},
		{"passes", []string{"apply/static"}},
	}
	for _, c := range cases {
		t.Run(c.caller, func(t *testing.T) {
			node := findFunc(t, g, c.caller)
			var got []string
			for _, e := range node.Out {
				got = append(got, label(e))
			}
			sort.Strings(got)
			sort.Strings(c.want)
			if len(got) != len(c.want) {
				t.Fatalf("%s: edges = %v, want %v", c.caller, got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("%s: edges = %v, want %v", c.caller, got, c.want)
				}
			}
		})
	}
}

func TestInEdges(t *testing.T) {
	g := load(t)
	// work is reached statically (three ways), through a var, through a
	// field, and through a bound parameter; the In list mirrors the
	// resolved Out edges.
	work := findFunc(t, g, "work")
	if len(work.In) < 5 {
		t.Fatalf("work.In has %d edges, want at least 5", len(work.In))
	}
	for _, e := range work.In {
		if e.Callee != work {
			t.Fatalf("In edge of work targets %s", e.Callee.Name())
		}
	}
}

func TestCalleesBySite(t *testing.T) {
	g := load(t)
	node := findFunc(t, g, "viaInterface")
	var sites int
	for _, e := range node.Out {
		got := g.Callees(e.Site)
		if len(got) != 2 {
			t.Fatalf("Callees(site) = %d edges, want 2 (CHA targets)", len(got))
		}
		sites++
	}
	if sites == 0 {
		t.Fatal("viaInterface has no resolved sites")
	}
}

func findFunc(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	for _, n := range g.Funcs() {
		if n.Func != nil && n.Func.Name() == name {
			return n
		}
	}
	t.Fatalf("function %s not in graph", name)
	return nil
}

// TestSummaries solves a reach summary — the callees a function may reach,
// transitively — over the fixture package.
func TestSummaries(t *testing.T) {
	pkg := loadPkg(t)
	pass := &analysis.Pass{
		Analyzer: &analysis.Analyzer{Name: "reach"},
		Pkg:      pkg.Types,
		Program:  analysis.NewProgram([]*analysis.Package{pkg}),
	}
	sums := callgraph.SummariesOf[[]string](pass)
	calls := 0
	nodes := sums.Solve(pass, func(n *callgraph.Node) []string {
		calls++
		var reach []string
		for _, e := range n.Out {
			reach = append(reach, label(e))
			reach = append(reach, sums.Get(e.Callee)...)
		}
		sort.Strings(reach)
		return slices.Compact(reach)
	}, slices.Equal[[]string])

	// One round finds each direct edge, a second carries work from pong
	// to ping and from the literal to viaLit, and a third changes nothing:
	// the loop stops there, short of the round cap.
	if rounds := calls / len(nodes); rounds != 3 || calls%len(nodes) != 0 {
		t.Errorf("summarize ran %d times over %d functions, want 3 full rounds", calls, len(nodes))
	}
	for _, c := range []struct {
		fn   string
		want []string
	}{
		{"ping", []string{"ping/static", "pong/static", "work/static"}},
		{"pong", []string{"ping/static", "pong/static", "work/static"}},
		{"viaLit", []string{"lit/funcvalue", "work/static"}},
	} {
		if got := sums.Get(findFunc(t, sums.Graph, c.fn)); !slices.Equal(got, c.want) {
			t.Errorf("summary of %s = %v, want %v", c.fn, got, c.want)
		}
	}
}
