// Package escapepool defines the analyzer enforcing the free-list
// ownership contract: a value from a pool.Pool or pool.Slices Get must be
// kept and reach a Release along EVERY path through the acquiring function
// — including paths that run through callees — or escape it (returned,
// stored, sent, or handed to a callee that takes ownership). A dropped
// container turns every later Get into a fresh allocation, and the pool's
// gets/releases counters drift apart without any test failing.
//
// Four findings, at the Get:
//
//   - the value is discarded, or assigned to _;
//   - the value is never released and never leaves the function: every
//     use borrows it in place (fields, methods other than Release,
//     indexing, reslicing, reassignment);
//   - the early-return leak: Release on the happy path, a bare return on
//     the error path — the counters drift only under faults, exactly when
//     nobody is watching;
//   - the borrowing-helper leak: the value is passed to a callee that
//     merely reads it and then dropped — nobody ever releases.
//
// The last two come from a forward must-analysis over the dataflow CFG.
// Each tracked value is live, released, escaped, or mixed (released on
// some joined paths only); defers are applied at the exit block. Calls
// consult per-parameter summaries computed callee-first over the whole
// program: a callee that always releases its parameter counts as a
// release, one that releases conditionally makes the value mixed, one
// that stores or returns it is an escape (silent), and one that only
// borrows it leaves the caller still responsible.
//
// Precision bias: escapes are forgiving. A callee whose body the analyzer
// cannot see, a send, a store, an interface call with disagreeing
// implementations — all silently end tracking. The analyzer's findings are
// therefore high-confidence; its silence is not a proof of correctness.
package escapepool

import (
	"go/ast"
	"go/types"

	"streamgpu/internal/analysis"
	"streamgpu/internal/analysis/callgraph"
	"streamgpu/internal/analysis/dataflow"
)

const poolPkg = "streamgpu/internal/pool"

// Analyzer flags pooled values that are dropped or miss Release on some
// path.
var Analyzer = &analysis.Analyzer{
	Name: "escapepool",
	Doc: "a value from pool.Get must be kept and reach Release on every path through the " +
		"acquiring function and its callees, or escape it; discarded values, early returns " +
		"and borrow-only helpers that drop the value leak it from the free list",
	Run: run,
}

// ParamAct is what a function does with a pooled value passed at one
// parameter position.
type ParamAct uint8

const (
	// ActNone: the parameter is only borrowed; the caller still owns it.
	ActNone ParamAct = iota
	// ActReleases: every path through the callee releases the parameter.
	ActReleases
	// ActMaybe: some paths release the parameter, some do not.
	ActMaybe
	// ActEscapes: the callee stores, returns, or forwards the parameter.
	ActEscapes
)

// summary is a function's per-parameter ownership summary.
type summary struct {
	Params []ParamAct
}

func (f *summary) equal(g *summary) bool {
	if (f == nil) != (g == nil) {
		return false
	}
	if f == nil {
		return true
	}
	if len(f.Params) != len(g.Params) {
		return false
	}
	for i := range f.Params {
		if f.Params[i] != g.Params[i] {
			return false
		}
	}
	return true
}

// absState is one tracked value's ownership state on a path set.
type absState uint8

const (
	stUnseen   absState = iota // join identity: not bound on this path
	stLive                     // borrowed from the pool, unreleased
	stReleased                 // handed back on every joined path
	stMixed                    // released on some joined paths only
	stEscaped                  // ownership left the function; forgiving top
)

func joinState(a, b absState) absState {
	switch {
	case a == b:
		return a
	case a == stUnseen:
		return b
	case b == stUnseen:
		return a
	case a == stEscaped || b == stEscaped:
		return stEscaped
	default: // any mix of live/released/mixed
		return stMixed
	}
}

// state maps each tracked variable to its ownership state.
type state map[*types.Var]absState

func joinStates(a, b state) state {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(state, len(a)+len(b))
	for v, s := range a {
		out[v] = s
	}
	for v, s := range b {
		out[v] = joinState(out[v], s)
	}
	return out
}

func statesEqual(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for v, s := range a {
		if b[v] != s {
			return false
		}
	}
	return true
}

func set(st state, v *types.Var, s absState) state {
	out := make(state, len(st)+1)
	for k, val := range st {
		out[k] = val
	}
	out[v] = s
	return out
}

func run(pass *analysis.Pass) error {
	a := &analyzer{pass: pass, sums: callgraph.SummariesOf[*summary](pass)}
	for _, n := range a.sums.Solve(pass, a.summarize, (*summary).equal) {
		a.emit(n)
	}
	return nil
}

// analyzer carries one package pass's context. A nil summary (a
// placeholder, or a function not analyzed yet) counts as an escape.
type analyzer struct {
	pass *analysis.Pass
	sums *callgraph.Summaries[*summary]
}

// solved is the result of one function's ownership analysis.
type solved struct {
	// acquired maps each Get-bound variable to its Get call, in the order
	// the calls appear.
	acquired map[*types.Var]*ast.CallExpr
	order    []*types.Var
	// borrowedBy names the first borrow-only callee each still-live value
	// was passed to — the interprocedural evidence for the live finding.
	borrowedBy map[*types.Var]string
	// exit is the state at function exit with defers applied.
	exit state
}

// solve runs the forward must-analysis over one function.
func (a *analyzer) solve(n *callgraph.Node, params []*types.Var) *solved {
	cfg := a.sums.Graph.CFG(n)
	s := &solved{
		acquired:   make(map[*types.Var]*ast.CallExpr),
		borrowedBy: make(map[*types.Var]string),
	}
	boundary := state{}
	for _, p := range params {
		boundary[p] = stLive
	}
	res := dataflow.Forward(cfg, dataflow.Problem[state]{
		Init:     func() state { return nil },
		Boundary: func() state { return boundary },
		Join:     joinStates,
		Equal:    statesEqual,
		Transfer: func(nd ast.Node, st state) state { return a.transfer(s, nd, st) },
	})
	s.exit = res.In[cfg.Exit]
	for _, d := range cfg.Defers {
		s.exit = a.applyDefer(s, d, s.exit)
	}
	return s
}

// transfer applies one CFG node to the ownership state. Defer statements
// are skipped here (their effect happens at exit); function literals end
// tracking for anything they capture.
func (a *analyzer) transfer(s *solved, nd ast.Node, st state) state {
	if _, ok := nd.(*ast.DeferStmt); ok {
		return st
	}
	info := a.pass.TypesInfo

	// Bind fresh Get results first, so uses in the same statement see them.
	if as, ok := nd.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isPoolGet(info, call) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue // discarded or untracked: emit reports a blank
			}
			v := lhsVar(info, id)
			if v == nil {
				continue
			}
			st = set(st, v, stLive)
			if _, seen := s.acquired[v]; !seen {
				s.acquired[v] = call
				s.order = append(s.order, v)
			}
		}
	}

	analysis.WithStack(nd, func(inner ast.Node, stack []ast.Node) bool {
		if lit, ok := inner.(*ast.FuncLit); ok {
			// A closure capturing a tracked value may release or retain it
			// on its own schedule: ownership leaves this function's paths.
			for _, v := range capturedTracked(info, lit, st) {
				st = set(st, v, stEscaped)
			}
			return false
		}
		id, ok := inner.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		cur, tracked := st[v]
		if !tracked || cur == stEscaped {
			return true
		}
		switch use := a.classify(id, stack); use.kind {
		case useRelease:
			st = set(st, v, stReleased)
		case useEscape:
			st = set(st, v, stEscaped)
		case useCall:
			switch act := a.calleeAct(use.call, use.argIndex); act {
			case ActReleases:
				st = set(st, v, stReleased)
			case ActMaybe:
				st = set(st, v, stMixed)
			case ActEscapes:
				st = set(st, v, stEscaped)
			case ActNone:
				if cur == stLive && s.borrowedBy[v] == "" {
					s.borrowedBy[v] = calleeName(info, use.call)
				}
			}
		}
		return true
	})
	return st
}

// applyDefer replays one deferred call against the exit state, descending
// into deferred function literals (defer func() { b.Release() }()).
func (a *analyzer) applyDefer(s *solved, d *ast.DeferStmt, st state) state {
	info := a.pass.TypesInfo
	analysis.WithStack(d.Call, func(inner ast.Node, stack []ast.Node) bool {
		id, ok := inner.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		cur, tracked := st[v]
		if !tracked || cur == stEscaped || cur == stReleased {
			return true
		}
		switch use := a.classify(id, stack); use.kind {
		case useRelease:
			st = set(st, v, stReleased)
		case useCall:
			if a.calleeAct(use.call, use.argIndex) == ActReleases {
				st = set(st, v, stReleased)
			}
		}
		return true
	})
	return st
}

// useKind classifies one identifier occurrence.
type useKind uint8

const (
	useBorrow useKind = iota // read or reassigned in place
	// useRead is ranged over, called, or passed to len/cap: a borrow to
	// the path analysis, but not an in-place use to onlyBorrowed.
	useRead
	useRelease
	useEscape
	useCall // passed as an argument; argIndex/call say where
)

type use struct {
	kind     useKind
	call     *ast.CallExpr
	argIndex int
}

// classify decides what one identifier occurrence means for ownership.
// Passing the value to a callee is not an automatic escape: the caller
// consults the callee's summary instead.
func (a *analyzer) classify(id *ast.Ident, stack []ast.Node) use {
	if len(stack) == 0 {
		return use{kind: useEscape}
	}
	for _, anc := range stack {
		if _, ok := anc.(*ast.ReturnStmt); ok {
			return use{kind: useEscape}
		}
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X == ast.Expr(id) {
			if len(stack) >= 2 {
				if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) && p.Sel.Name == "Release" {
					return use{kind: useRelease}
				}
			}
			return use{kind: useBorrow}
		}
		return use{kind: useEscape}
	case *ast.IndexExpr:
		if p.X == ast.Expr(id) {
			return use{kind: useBorrow}
		}
		return use{kind: useEscape}
	case *ast.SliceExpr:
		if p.X == ast.Expr(id) {
			return use{kind: useBorrow}
		}
		return use{kind: useEscape}
	case *ast.RangeStmt:
		if p.X == ast.Expr(id) {
			return use{kind: useRead} // ranging reads elements in place
		}
		return use{kind: useEscape}
	case *ast.CallExpr:
		if p.Fun == ast.Expr(id) {
			return use{kind: useRead} // calling a tracked func value: not pooled
		}
		if isLenCap(a.pass.TypesInfo, p) {
			return use{kind: useRead}
		}
		for i, arg := range p.Args {
			if ast.Unparen(arg) == ast.Expr(id) {
				fn := analysis.Callee(a.pass.TypesInfo, p)
				if fn != nil && fn.Name() == "Release" && isPoolMethod(fn) {
					return use{kind: useRelease}
				}
				return use{kind: useCall, call: p, argIndex: i}
			}
		}
		return use{kind: useEscape}
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == ast.Expr(id) {
				return use{kind: useBorrow}
			}
		}
		return use{kind: useEscape}
	}
	return use{kind: useEscape}
}

// isLenCap reports whether call is the builtin len or cap — pure reads
// that never take ownership.
func isLenCap(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || (id.Name != "len" && id.Name != "cap") {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// calleeName names the call's target for a diagnostic.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.Callee(info, call); fn != nil {
		return fn.Name()
	}
	return "a helper"
}

// calleeAct resolves what the callees of one call do with the argument at
// argIndex. Unknown bodies, go statements, variadic overflow, and summary
// disagreement between possible targets all degrade to ActEscapes —
// forgiving.
func (a *analyzer) calleeAct(call *ast.CallExpr, argIndex int) ParamAct {
	edges := a.sums.Graph.Callees(call)
	if len(edges) == 0 {
		return ActEscapes
	}
	act := ActEscapes
	first := true
	for _, e := range edges {
		if e.Go {
			return ActEscapes
		}
		f := a.sums.Get(e.Callee)
		if f == nil || argIndex >= len(f.Params) {
			return ActEscapes
		}
		if isVariadicOverflow(e.Callee, argIndex) {
			return ActEscapes
		}
		if first {
			act, first = f.Params[argIndex], false
		} else if act != f.Params[argIndex] {
			return ActEscapes
		}
	}
	return act
}

// isVariadicOverflow reports whether argIndex lands in the variadic slot of
// the callee (several arguments share one parameter: no per-arg summary).
func isVariadicOverflow(n *callgraph.Node, argIndex int) bool {
	if n.Func == nil {
		return false
	}
	sig, ok := n.Func.Type().(*types.Signature)
	if !ok {
		return false
	}
	return sig.Variadic() && argIndex >= sig.Params().Len()-1
}

// summarize computes one function's per-parameter summary.
func (a *analyzer) summarize(n *callgraph.Node) *summary {
	params := paramVars(a.pass.TypesInfo, n)
	if len(params) == 0 {
		return &summary{}
	}
	s := a.solve(n, params)
	f := &summary{Params: make([]ParamAct, len(params))}
	for i, p := range params {
		switch s.exit[p] {
		case stReleased:
			f.Params[i] = ActReleases
		case stMixed:
			f.Params[i] = ActMaybe
		case stEscaped:
			f.Params[i] = ActEscapes
		default:
			f.Params[i] = ActNone
		}
	}
	return f
}

// emit reports this function's findings from a final solve.
func (a *analyzer) emit(n *callgraph.Node) {
	s := a.solve(n, paramVars(a.pass.TypesInfo, n))
	// A variable bound in a literal may be declared, and used, anywhere in
	// the enclosing declaration.
	outer := n
	for outer.Parent != nil {
		outer = outer.Parent
	}
	for _, v := range s.order {
		call := s.acquired[v]
		if a.onlyBorrowed(outer.Body(), v) {
			a.pass.Reportf(call.Pos(),
				"pooled value %s is never released and does not escape; return it to its pool with Release", v.Name())
			continue
		}
		switch s.exit[v] {
		case stMixed:
			a.pass.Reportf(call.Pos(),
				"pooled value %s is released on some paths but not all; every path must Release it or hand ownership off", v.Name())
		case stLive:
			if callee := s.borrowedBy[v]; callee != "" {
				a.pass.Reportf(call.Pos(),
					"pooled value %s is passed to %s, which only borrows it, and is never released; the caller still owns it", v.Name(), callee)
			}
		}
	}

	// Gets whose value no variable ever holds.
	info := a.pass.TypesInfo
	ast.Inspect(n.Body(), func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			return false // its own graph node
		case *ast.ExprStmt:
			if call, ok := nd.X.(*ast.CallExpr); ok && isPoolGet(info, call) {
				a.pass.Reportf(call.Pos(), "pooled value from Get is discarded without Release")
			}
		case *ast.AssignStmt:
			if len(nd.Lhs) != len(nd.Rhs) {
				return true
			}
			for i, rhs := range nd.Rhs {
				id, isIdent := nd.Lhs[i].(*ast.Ident)
				call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
				if isIdent && id.Name == "_" && isCall && isPoolGet(info, call) {
					a.pass.Reportf(call.Pos(), "pooled value from Get is assigned to _ and is lost to the free list; keep it and Release it")
				}
			}
		}
		return true
	})
}

// onlyBorrowed reports whether every use of v in body, nested function
// literals included, borrows it in place: no call, range, return, store or
// Release ever sees it. Such a value can never leave the function or go
// back to its pool on any path.
func (a *analyzer) onlyBorrowed(body *ast.BlockStmt, v *types.Var) bool {
	only := true
	analysis.WithStack(body, func(nd ast.Node, stack []ast.Node) bool {
		if id, ok := nd.(*ast.Ident); ok && a.pass.TypesInfo.Uses[id] == v && a.classify(id, stack).kind != useBorrow {
			only = false
		}
		return only
	})
	return only
}

// paramVars lists the function's parameter objects in declaration order.
func paramVars(info *types.Info, n *callgraph.Node) []*types.Var {
	var fields *ast.FieldList
	switch {
	case n.Decl != nil:
		fields = n.Decl.Type.Params
	case n.Lit != nil:
		fields = n.Lit.Type.Params
	}
	if fields == nil {
		return nil
	}
	var out []*types.Var
	for _, field := range fields.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// capturedTracked lists tracked variables referenced inside a function
// literal.
func capturedTracked(info *types.Info, lit *ast.FuncLit, st state) []*types.Var {
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				if _, tracked := st[v]; tracked {
					out = append(out, v)
				}
			}
		}
		return true
	})
	return out
}

// lhsVar resolves the variable bound by an assignment target identifier.
func lhsVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// isPoolGet reports whether call invokes Get on a pool free-list type.
func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	return fn != nil && fn.Name() == "Get" && isPoolMethod(fn)
}

// isPoolMethod reports whether fn's receiver is one of the pool package's
// free-list types (including the Bytes and Int32s aliases, which share the
// Slices methods).
func isPoolMethod(fn *types.Func) bool {
	recv := analysis.ReceiverNamed(fn)
	if recv == nil {
		return false
	}
	obj := recv.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != poolPkg {
		return false
	}
	switch obj.Name() {
	case "Pool", "Slices":
		return true
	}
	return false
}
