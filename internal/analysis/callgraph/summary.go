package callgraph

import (
	"streamgpu/internal/analysis"
	"streamgpu/internal/analysis/dataflow"
)

// Of returns the call graph of the pass's whole program, building it on
// first use and caching it on the Program, so a run builds one graph.
func Of(pass *analysis.Pass) *Graph {
	return pass.Program.Cached("callgraph", func() any {
		return Build(pass.Program.Pkgs)
	}).(*Graph)
}

// CFG returns n's control-flow graph, built on first use and shared by
// every analyzer of the run. Not safe for concurrent use; the driver runs
// passes one at a time.
func (g *Graph) CFG(n *Node) *dataflow.CFG {
	c, ok := g.cfgs[n]
	if !ok {
		c = dataflow.New(n.Body())
		g.cfgs[n] = c
	}
	return c
}

// maxRounds caps the summary fixpoint within one package. Mutual recursion
// settles in a few rounds; a summary still changing after the cap keeps
// its last value.
const maxRounds = 5

// Summaries is one analyzer's table of per-function summaries for a whole
// run, keyed by graph node so declared functions and function literals
// share one lookup. The driver visits packages callee-first, so when a
// package is solved every callee in an earlier package already holds its
// final summary. Only edges that resolve to the callee's own node reach
// it: a static call into another module package lands on a bodiless
// placeholder, since importers see a second type-checked copy of that
// package (DESIGN.md §13).
type Summaries[S any] struct {
	Graph *Graph
	m     map[*Node]S
}

// SummariesOf returns the pass analyzer's summary table, creating it on
// first use and caching it on the Program.
func SummariesOf[S any](pass *analysis.Pass) *Summaries[S] {
	return pass.Program.Cached("summaries."+pass.Analyzer.Name, func() any {
		return &Summaries[S]{Graph: Of(pass), m: make(map[*Node]S)}
	}).(*Summaries[S])
}

// Get returns n's summary: the zero S for placeholders and for functions
// whose package has not been solved yet.
func (t *Summaries[S]) Get(n *Node) S { return t.m[n] }

// Solve summarizes every function of the pass's package and returns them
// in graph order. Each round re-summarizes every function, storing a
// result as soon as it differs from the current one under equal, so later
// functions of the same round already see it; rounds repeat until nothing
// changes or maxRounds is reached.
func (t *Summaries[S]) Solve(pass *analysis.Pass, summarize func(*Node) S, equal func(a, b S) bool) []*Node {
	var nodes []*Node
	for _, n := range t.Graph.Funcs() {
		if n.Pkg != nil && n.Pkg.Types == pass.Pkg && n.Body() != nil {
			nodes = append(nodes, n)
		}
	}
	for range maxRounds {
		changed := false
		for _, n := range nodes {
			if s := summarize(n); !equal(s, t.m[n]) {
				t.m[n] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return nodes
}
