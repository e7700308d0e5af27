package analysis

import (
	"go/token"
	"sort"
	"sync"
)

// Program is the whole set of packages of one analysis run, shared by every
// pass. The interprocedural analyzer, lockorder, uses it two ways: Pkgs
// gives the program view (for building the call graph over everything the
// run loaded), and Cached holds what outlives one pass — the call graph,
// the summary table (callgraph.Summaries) and the lock graph.
//
// Pkgs is in topological import order — a package appears after every
// package it imports. Because the driver visits packages in this order, a
// function is summarized by the time any caller's package is analyzed;
// that callee-before-caller ordering is the backbone of lockorder's
// summaries.
type Program struct {
	Fset *token.FileSet
	// Pkgs is every loaded package in topological import order.
	Pkgs []*Package

	mu    sync.Mutex
	cache map[string]any
}

// NewProgram assembles a program from loaded packages. RunAnalyzers calls
// this; tests may too.
func NewProgram(pkgs []*Package) *Program {
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	return &Program{
		Fset:  fset,
		Pkgs:  topoSort(pkgs),
		cache: make(map[string]any),
	}
}

// Cached memoizes an expensive program-wide structure under key — the call
// graph, which must only be built once per run, and state an analyzer
// carries from one package's pass to the next.
func (p *Program) Cached(key string, build func() any) any {
	p.mu.Lock()
	v, ok := p.cache[key]
	p.mu.Unlock()
	if ok {
		return v
	}
	built := build()
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.cache[key]; ok { // lost a race: keep the first
		return v
	}
	p.cache[key] = built
	return built
}

// topoSort orders packages callee-first: every package follows the
// packages it imports. Ties (and the unreachable case of a cycle, which Go
// forbids anyway) break on the incoming order, which Load already sorts by
// import path, so the result is deterministic.
func topoSort(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	out := make([]*Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 new, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.PkgPath] != 0 {
			return
		}
		state[p.PkgPath] = 1
		imps := p.Types.Imports()
		paths := make([]string, 0, len(imps))
		for _, im := range imps {
			paths = append(paths, im.Path())
		}
		sort.Strings(paths)
		for _, path := range paths {
			if dep, ok := byPath[path]; ok {
				visit(dep)
			}
		}
		state[p.PkgPath] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
