// Package ctxprop defines an analyzer enforcing context propagation: a
// function that receives a context.Context must thread it to the blocking
// work it does — directly (select on ctx.Done alongside channel operations)
// or by passing the ctx on to callees — instead of blocking in a way the
// caller's cancellation can never interrupt. It generalizes deadlinecheck
// beyond single functions: the serving layer promises that cancelling a
// request's ctx unwinds the whole call chain, and one naked channel wait
// anywhere in that chain silently breaks the promise.
//
// Three findings, all only inside functions that take a ctx parameter:
//
//   - a blocking operation — channel send, channel receive, WaitGroup.Wait
//     or Cond.Wait — performed naked, not as a case of a select with an
//     alternative (a second case or default);
//   - context.Background() or context.TODO() passed to a ctx-taking callee,
//     detaching the callee from the caller's cancellation;
//   - a call to a function that takes no ctx and (by its summary, computed
//     interprocedurally callee-first) unconditionally blocks on a channel
//     or wait — cancellation cannot reach it.
//
// Receives whose channel is a call result (<-ctx.Done(), <-time.After(d))
// are exempt: the first is the cancellation mechanism itself and the
// second is self-limiting. Function literals are analyzed when something
// calls them, not where they are written; goroutine bodies are goleak's
// domain. Ranging over a channel is also left to goleak — a producer-close
// contract is idiomatic even in ctx-aware code.
package ctxprop

import (
	"go/ast"
	"go/token"
	"go/types"

	"streamgpu/internal/analysis"
	"streamgpu/internal/analysis/callgraph"
)

// Analyzer flags ctx-receiving functions that block outside their ctx.
var Analyzer = &analysis.Analyzer{
	Name: "ctxprop",
	Doc: "a function receiving a context.Context must thread it to its blocking work: " +
		"select on ctx.Done alongside channel operations and pass ctx to blocking callees, " +
		"or cancellation silently stops working for the whole call chain",
	Run: run,
}

// blocking is the summary of a ctx-less function that unconditionally
// blocks on a channel or wait — directly or through a ctx-less callee; nil
// for every other function.
type blocking struct {
	// op describes the blocking operation, for the caller's diagnostic
	// ("receive on ch", "(*sync.WaitGroup).Wait").
	op string
}

func run(pass *analysis.Pass) error {
	a := &analyzer{pass: pass, sums: callgraph.SummariesOf[*blocking](pass)}
	// Only whether a function blocks matters to callers: the first
	// operation found stays the one named.
	nodes := a.sums.Solve(pass, a.blocks, func(x, y *blocking) bool { return (x == nil) == (y == nil) })

	// Report inside ctx-receiving functions.
	for _, n := range nodes {
		if n.Func != nil && hasCtxParam(n.Func) {
			a.check(n)
		}
	}
	return nil
}

type analyzer struct {
	pass *analysis.Pass
	sums *callgraph.Summaries[*blocking]
}

// blocks computes whether a ctx-less function unconditionally blocks. A
// ctx-receiving function is never summarized as blocking: callers that
// pass it their ctx have done their part, and its own body is checked
// directly.
func (a *analyzer) blocks(n *callgraph.Node) *blocking {
	if n.Func != nil && hasCtxParam(n.Func) {
		return nil
	}
	var found *blocking
	a.walkBlocking(n.Body(), func(op blockingOp) {
		if found == nil && !op.guarded {
			found = &blocking{op: op.desc}
		}
	}, func(call *ast.CallExpr) {
		if found != nil {
			return
		}
		for _, e := range a.sums.Graph.Callees(call) {
			if e.Go {
				continue
			}
			if f := a.sums.Get(e.Callee); f != nil {
				found = &blocking{op: f.op}
				return
			}
		}
	})
	return found
}

// check reports the three findings inside one ctx-receiving function.
func (a *analyzer) check(n *callgraph.Node) {
	info := a.pass.TypesInfo
	a.walkBlocking(n.Body(), func(op blockingOp) {
		if op.guarded {
			return
		}
		a.pass.Reportf(op.pos,
			"function receives a ctx but %s outside any select: cancellation cannot interrupt it; select on ctx.Done() as an alternative", op.desc)
	}, func(call *ast.CallExpr) {
		// context.Background()/TODO() handed to a ctx-taking callee.
		fn := analysis.Callee(info, call)
		for _, arg := range call.Args {
			name := freshCtxName(info, arg)
			if name == "" {
				continue
			}
			callee := "callee"
			if fn != nil {
				callee = fn.Name()
			}
			a.pass.Reportf(arg.Pos(),
				"function receives a ctx but passes %s to %s, detaching it from the caller's cancellation; thread the ctx", name, callee)
		}
		// Blocking ctx-less callee.
		if fn != nil && hasCtxParam(fn) {
			return // ctx was threadable; Background misuse handled above
		}
		for _, e := range a.sums.Graph.Callees(call) {
			if e.Go {
				continue
			}
			if f := a.sums.Get(e.Callee); f != nil {
				a.pass.Reportf(call.Pos(),
					"function receives a ctx but calls %s, which blocks (%s) and takes no ctx: cancellation cannot reach it", e.Callee.Name(), f.op)
				return
			}
		}
	})
}

// blockingOp is one potentially blocking operation found in a body.
type blockingOp struct {
	pos     token.Pos
	desc    string
	guarded bool // a select alternative exists
}

// walkBlocking visits every blocking operation and every call in the body,
// skipping nested function literals (they are separate call-graph nodes).
func (a *analyzer) walkBlocking(body *ast.BlockStmt, onOp func(blockingOp), onCall func(*ast.CallExpr)) {
	if body == nil {
		return
	}
	info := a.pass.TypesInfo
	analysis.WithStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if !isTrackableChan(info, n.Chan) {
				return true
			}
			onOp(blockingOp{pos: n.Pos(), desc: "sends to " + types.ExprString(n.Chan), guarded: selectGuarded(n, stack)})
		case *ast.UnaryExpr:
			if n.Op != token.ARROW || !isTrackableChan(info, n.X) {
				return true
			}
			onOp(blockingOp{pos: n.Pos(), desc: "receives from " + types.ExprString(n.X), guarded: selectGuarded(n, stack)})
		case *ast.CallExpr:
			if fn := analysis.Callee(info, n); fn != nil {
				switch fn.FullName() {
				case "(*sync.WaitGroup).Wait", "(*sync.Cond).Wait":
					onOp(blockingOp{pos: n.Pos(), desc: "waits on " + fn.FullName(), guarded: false})
					return true
				}
			}
			onCall(n)
		}
		return true
	})
}

// isTrackableChan reports whether expr is a channel-typed variable, field,
// or parameter — not a call result (ctx.Done(), time.After) or other
// untrackable expression.
func isTrackableChan(info *types.Info, expr ast.Expr) bool {
	expr = ast.Unparen(expr)
	if _, ok := info.TypeOf(expr).Underlying().(*types.Chan); !ok {
		return false
	}
	switch expr.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return true
	}
	return false
}

// selectGuarded reports whether op is the communication of a select clause
// that has an alternative (another case or a default).
func selectGuarded(op ast.Node, stack []ast.Node) bool {
	child := op
	for i := len(stack) - 1; i >= 0; i-- {
		cc, ok := stack[i].(*ast.CommClause)
		if !ok {
			child = stack[i]
			continue
		}
		if !isCommOf(cc, child, op) {
			return false // op is in the clause body: naked again
		}
		// The clause's select is above it, past the select body's block.
		for j := i - 1; j >= 0; j-- {
			if sel, ok := stack[j].(*ast.SelectStmt); ok {
				return len(sel.Body.List) >= 2
			}
			if _, ok := stack[j].(*ast.BlockStmt); !ok {
				break
			}
		}
		return false
	}
	return false
}

// isCommOf reports whether the op (reached via child) sits in the clause's
// communication statement rather than its body.
func isCommOf(cc *ast.CommClause, child, op ast.Node) bool {
	if cc.Comm == nil {
		return false
	}
	if child == ast.Node(cc.Comm) || op == ast.Node(cc.Comm) {
		return true
	}
	// One level of indirection: `case v := <-ch:` wraps the receive in an
	// assignment that IS the comm statement.
	found := false
	ast.Inspect(cc.Comm, func(n ast.Node) bool {
		if n == op {
			found = true
		}
		return !found
	})
	return found
}

// hasCtxParam reports whether fn takes a context.Context parameter.
func hasCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if analysis.IsNamed(sig.Params().At(i).Type(), "context", "Context") {
			return true
		}
	}
	return false
}

// freshCtxName reports "context.Background()"/"context.TODO()" when arg is
// such a call, "" otherwise.
func freshCtxName(info *types.Info, arg ast.Expr) string {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	switch fn.Name() {
	case "Background", "TODO":
		return "context." + fn.Name() + "()"
	}
	return ""
}
