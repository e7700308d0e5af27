// Package callgraph builds a package-level call graph for the analyzed
// program using only go/ast and go/types, in the style of class-hierarchy
// analysis (CHA): every call site is resolved to the set of functions it
// *could* reach given the program's declared types, with no flow or
// context sensitivity.
//
// Resolution covers, in decreasing order of precision:
//
//   - static calls and method calls on concrete receivers (one edge);
//   - interface method calls: one edge per named type declared in the
//     analyzed packages whose method set implements the interface (CHA);
//   - calls through function values: flow-insensitive — every function
//     value ever stored into the variable or struct field being called
//     through becomes a callee. Stores are indexed program-wide across
//     assignments, var initializers, composite literals (keyed and
//     positional), and arguments bound to parameters of statically
//     resolved calls. This is what resolves the repo's stage-function
//     fields (ff/core stage nodes, qos.Item.Run/Expire/Drop closures).
//
// Known imprecision, deliberate (see DESIGN.md §13): values that flow
// through channels, maps, slices, or function returns are not tracked —
// such call sites simply resolve to fewer (possibly zero) callees, so
// analyzers built on the graph treat an unresolved site as "unknown
// callee" and pick their own conservative default. Types declared outside
// the analyzed packages never appear as interface implementors.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"

	"streamgpu/internal/analysis"
	"streamgpu/internal/analysis/dataflow"
)

// EdgeKind says how a call site was resolved.
type EdgeKind int

const (
	// Static is a direct call of a declared function, method on a concrete
	// receiver, or immediately invoked function literal.
	Static EdgeKind = iota
	// Interface is a CHA-resolved interface method call.
	Interface
	// FuncValue is a call through a variable holding a function value.
	FuncValue
	// FieldValue is a call through a struct field holding a function value.
	FieldValue
)

func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	case FuncValue:
		return "funcvalue"
	case FieldValue:
		return "fieldvalue"
	}
	return "unknown"
}

// Node is one function in the graph: a declared function or method, a
// function literal, or a body-less placeholder for a function outside the
// analyzed packages (stdlib, export-data-only).
type Node struct {
	// Func is the function object; nil for function literals.
	Func *types.Func
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Decl is the syntax of a declared function; nil for literals and
	// placeholders.
	Decl *ast.FuncDecl
	// Pkg is the analyzed package holding the body; nil for placeholders.
	Pkg *analysis.Package
	// In and Out are the call edges into and out of this node, in
	// deterministic (build) order.
	In, Out []*Edge
}

// Body returns the node's function body, or nil for placeholders.
func (n *Node) Body() *ast.BlockStmt {
	switch {
	case n.Lit != nil:
		return n.Lit.Body
	case n.Decl != nil:
		return n.Decl.Body
	}
	return nil
}

// Name returns a human-readable name ("pkg.Func", "(pkg.T).M", or
// "func literal").
func (n *Node) Name() string {
	if n.Func != nil {
		return n.Func.FullName()
	}
	return "func literal"
}

// Edge is one resolved call: Caller's Site may reach Callee.
type Edge struct {
	Caller, Callee *Node
	// Site is the call expression, inside Caller's body.
	Site *ast.CallExpr
	Kind EdgeKind
	// Go and Defer mark `go f()` and `defer f()` sites.
	Go, Defer bool
}

// Graph is the program's call graph.
type Graph struct {
	// nodes is keyed by the origin (uninstantiated) function object.
	nodes map[*types.Func]*Node
	lits  map[*ast.FuncLit]*Node
	// sites maps each call expression to its outgoing edges.
	sites map[*ast.CallExpr][]*Edge
	// order lists every node with a body in deterministic order.
	order []*Node
	// cfgs caches each node's control-flow graph (see CFG).
	cfgs map[*Node]*dataflow.CFG
}

// Funcs returns every node that has a body, in deterministic order:
// declared functions by position, then literals by position.
func (g *Graph) Funcs() []*Node { return g.order }

// Callees returns the outgoing edges of a call site, nil when the site is
// unresolved (unknown callee) or not a tracked call.
func (g *Graph) Callees(call *ast.CallExpr) []*Edge { return g.sites[call] }

// funcTarget is one possible value of a function-typed variable or field.
type funcTarget struct {
	fn  *types.Func // declared function or method value
	lit *ast.FuncLit
	v   *types.Var // var-to-var copy, resolved transitively
}

// builder accumulates the graph.
type builder struct {
	g    *Graph
	pkgs []*analysis.Package
	// stores indexes every function value stored into a variable or
	// field, program-wide.
	stores map[*types.Var][]funcTarget
	// named lists every named (non-interface) type declared in the
	// analyzed packages, for CHA.
	named []*types.Named
}

// Build constructs the call graph of the given packages. The packages
// should come from one Loader so type identities agree.
func Build(pkgs []*analysis.Package) *Graph {
	b := &builder{
		g: &Graph{
			nodes: make(map[*types.Func]*Node),
			lits:  make(map[*ast.FuncLit]*Node),
			sites: make(map[*ast.CallExpr][]*Edge),
			cfgs:  make(map[*Node]*dataflow.CFG),
		},
		pkgs:   pkgs,
		stores: make(map[*types.Var][]funcTarget),
	}
	b.indexDecls()
	b.indexNamed()
	b.indexStores()
	b.indexParamBinds()
	b.resolveCalls()
	return b.g
}

// indexParamBinds records function-valued arguments of every static call
// site as stores into the callee's parameters — before any call is
// resolved, so a callee's body sees its callers' bindings regardless of
// declaration order.
func (b *builder) indexParamBinds() {
	for _, node := range b.g.order {
		body := node.Body()
		if body == nil {
			continue
		}
		info := node.Pkg.Info
		walkOwn(body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := analysis.Callee(info, call)
			if fn == nil {
				return
			}
			if callee := b.g.nodes[fn.Origin()]; callee != nil {
				b.bindArgs(info, callee, call)
			}
		})
	}
}

// indexDecls creates a node per function declaration and per function
// literal, in file order.
func (b *builder) indexDecls() {
	for _, pkg := range b.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &Node{Func: fn.Origin(), Decl: fd, Pkg: pkg}
				b.g.nodes[fn.Origin()] = n
				b.g.order = append(b.g.order, n)
				if fd.Body != nil {
					b.indexLits(pkg, fd.Body)
				}
			}
			// Function literals in package-level initializers get nodes
			// too.
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					b.indexLits(pkg, gd)
				}
			}
		}
	}
}

// indexLits registers every function literal under root, nested ones
// included.
func (b *builder) indexLits(pkg *analysis.Package, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ln := &Node{Lit: lit, Pkg: pkg}
			b.g.lits[lit] = ln
			b.g.order = append(b.g.order, ln)
		}
		return true
	})
}

// indexNamed collects the named non-interface types of the analyzed
// packages, sorted for deterministic CHA edge order.
func (b *builder) indexNamed() {
	for _, pkg := range b.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			b.named = append(b.named, named)
		}
	}
	sort.Slice(b.named, func(i, j int) bool {
		oi, oj := b.named[i].Obj(), b.named[j].Obj()
		if oi.Pkg().Path() != oj.Pkg().Path() {
			return oi.Pkg().Path() < oj.Pkg().Path()
		}
		return oi.Name() < oj.Name()
	})
}

// indexStores records every function value stored into a variable or
// struct field anywhere in the program.
func (b *builder) indexStores() {
	for _, pkg := range b.pkgs {
		for _, file := range pkg.Files {
			info := pkg.Info
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if i >= len(n.Rhs) {
							break // multi-value RHS: untracked
						}
						b.store(info, lhsVar(info, lhs), n.Rhs[i])
					}
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if i < len(n.Values) {
							v, _ := info.Defs[name].(*types.Var)
							b.store(info, v, n.Values[i])
						}
					}
				case *ast.CompositeLit:
					b.indexCompositeLit(info, n)
				}
				return true
			})
		}
	}
}

// lhsVar resolves an assignment target to its variable or field object.
func lhsVar(info *types.Info, lhs ast.Expr) *types.Var {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v, ok := info.Defs[lhs].(*types.Var); ok {
			return v
		}
		v, _ := info.Uses[lhs].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[lhs]; ok {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		v, _ := info.Uses[lhs.Sel].(*types.Var)
		return v
	}
	return nil
}

// indexCompositeLit records function values assigned to struct fields in a
// composite literal, keyed or positional.
func (b *builder) indexCompositeLit(info *types.Info, cl *ast.CompositeLit) {
	tv, ok := info.Types[cl]
	if !ok {
		return
	}
	st, ok := deref(tv.Type).Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if f, ok := info.Uses[key].(*types.Var); ok {
				b.store(info, f, kv.Value)
			}
			continue
		}
		if i < st.NumFields() {
			b.store(info, st.Field(i), elt)
		}
	}
}

// store records that expr's function value may be held by v.
func (b *builder) store(info *types.Info, v *types.Var, expr ast.Expr) {
	if v == nil || expr == nil {
		return
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return
	}
	if t, ok := b.target(info, expr); ok {
		b.stores[v] = append(b.stores[v], t)
	}
}

// target resolves a stored expression to a function target.
func (b *builder) target(info *types.Info, expr ast.Expr) (funcTarget, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		return funcTarget{lit: e}, true
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Func:
			return funcTarget{fn: obj.Origin()}, true
		case *types.Var:
			return funcTarget{v: obj}, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			switch obj := sel.Obj().(type) {
			case *types.Func: // method value x.M
				return funcTarget{fn: obj.Origin()}, true
			case *types.Var: // field copy x.f
				return funcTarget{v: obj}, true
			}
			return funcTarget{}, false
		}
		switch obj := info.Uses[e.Sel].(type) {
		case *types.Func: // pkg.Fn
			return funcTarget{fn: obj.Origin()}, true
		case *types.Var: // pkg.Var
			return funcTarget{v: obj}, true
		}
	}
	return funcTarget{}, false
}

// resolveCalls walks every function body and resolves its call sites.
func (b *builder) resolveCalls() {
	for _, node := range b.g.order {
		body := node.Body()
		if body == nil {
			continue
		}
		// Mark go/defer call sites first.
		goSites := make(map[*ast.CallExpr]bool)
		deferSites := make(map[*ast.CallExpr]bool)
		walkOwn(body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.GoStmt:
				goSites[n.Call] = true
			case *ast.DeferStmt:
				deferSites[n.Call] = true
			}
		})
		walkOwn(body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			b.resolveCall(node, call, goSites[call], deferSites[call])
		})
	}
}

// walkOwn visits the nodes of a function body without descending into
// nested function literals (they are separate graph nodes).
func walkOwn(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// resolveCall adds edges for one call site.
func (b *builder) resolveCall(caller *Node, call *ast.CallExpr, isGo, isDefer bool) {
	info := caller.Pkg.Info

	// Conversions and builtins are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return
		}
	}

	// Immediately invoked literal.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		b.addEdge(caller, b.g.lits[lit], call, Static, isGo, isDefer)
		return
	}

	// Interface method call: CHA.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv()) {
				b.resolveInterfaceCall(caller, call, s, isGo, isDefer)
				return
			}
		}
	}

	// Static call (function, concrete method). Parameter binding already
	// happened in indexParamBinds.
	if fn := analysis.Callee(info, call); fn != nil {
		callee := b.g.nodes[fn.Origin()]
		if callee == nil {
			callee = b.placeholder(fn.Origin())
		}
		b.addEdge(caller, callee, call, Static, isGo, isDefer)
		return
	}

	// Call through a function value: variable or field.
	b.resolveValueCall(caller, call, isGo, isDefer)
}

// resolveInterfaceCall adds one edge per declared type implementing the
// interface, targeting that type's method.
func (b *builder) resolveInterfaceCall(caller *Node, call *ast.CallExpr, s *types.Selection, isGo, isDefer bool) {
	iface, ok := s.Recv().Underlying().(*types.Interface)
	if !ok {
		return
	}
	mname := s.Obj().Name()
	for _, named := range b.named {
		recv := types.Type(named)
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, s.Obj().Pkg(), mname)
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		callee := b.g.nodes[m.Origin()]
		if callee == nil {
			callee = b.placeholder(m.Origin())
		}
		b.addEdge(caller, callee, call, Interface, isGo, isDefer)
	}
}

// resolveValueCall resolves a call through a variable or field, following
// var-to-var copies transitively.
func (b *builder) resolveValueCall(caller *Node, call *ast.CallExpr, isGo, isDefer bool) {
	info := caller.Pkg.Info
	var root *types.Var
	kind := FuncValue
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		root, _ = info.Uses[fun].(*types.Var)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			root, _ = sel.Obj().(*types.Var)
			if root != nil && root.IsField() {
				kind = FieldValue
			}
		} else {
			root, _ = info.Uses[fun.Sel].(*types.Var)
		}
	}
	if root == nil {
		return // unresolved: unknown callee
	}
	seen := make(map[*types.Var]bool)
	var follow func(v *types.Var)
	follow = func(v *types.Var) {
		if v == nil || seen[v] {
			return
		}
		seen[v] = true
		for _, t := range b.stores[v] {
			switch {
			case t.lit != nil:
				b.addEdge(caller, b.g.lits[t.lit], call, kind, isGo, isDefer)
			case t.fn != nil:
				callee := b.g.nodes[t.fn]
				if callee == nil {
					callee = b.placeholder(t.fn)
				}
				b.addEdge(caller, callee, call, kind, isGo, isDefer)
			case t.v != nil:
				follow(t.v)
			}
		}
	}
	follow(root)
}

// bindArgs records function-valued arguments as stores into the callee's
// parameters, so calls through a parameter resolve to the functions the
// program actually passes (the ff/core stage-function pattern).
func (b *builder) bindArgs(info *types.Info, callee *Node, call *ast.CallExpr) {
	if callee.Decl == nil || callee.Func == nil {
		return
	}
	sig, ok := callee.Func.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			if sig.Variadic() && params.Len() > 0 {
				b.store(info, params.At(params.Len()-1), arg)
			}
			break
		}
		b.store(info, params.At(i), arg)
	}
}

// placeholder creates a body-less node for a function outside the
// analyzed packages.
func (b *builder) placeholder(fn *types.Func) *Node {
	n := &Node{Func: fn}
	b.g.nodes[fn] = n
	return n
}

func (b *builder) addEdge(caller, callee *Node, site *ast.CallExpr, kind EdgeKind, isGo, isDefer bool) {
	if callee == nil {
		return
	}
	// Deduplicate: the same (site, callee) pair can be reached twice via
	// different store paths.
	for _, e := range b.g.sites[site] {
		if e.Callee == callee {
			return
		}
	}
	e := &Edge{Caller: caller, Callee: callee, Site: site, Kind: kind, Go: isGo, Defer: isDefer}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
	b.g.sites[site] = append(b.g.sites[site], e)
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
