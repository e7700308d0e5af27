// Package deadlinecheck defines an analyzer enforcing the serving layer's
// deadline-admission contract: a handler path that enqueues work into the
// scheduler ((*qos.Sched).Enqueue) must visibly consult the request's
// deadline — or state, in its doc comment, why the enqueued work is exempt.
//
// The overload design (DESIGN.md §12) fast-fails requests whose estimated
// queue wait exceeds their deadline and expires queued items past theirs;
// both only happen when every enqueue site threads the deadline decision
// through. The failure mode this guards against is quiet: a new handler that
// enqueues without the deadline check still works, it just silently turns
// deadline admission off for that path. Mechanically, an Enqueue call is
// accepted when the enclosing function mentions a deadline at all — an
// identifier, field key, or method name containing "deadline" (the admission
// helpers qualify), or the word "deadline" in the function's doc comment for
// deliberately exempt paths (e.g. sealed dedup batches, whose bytes are
// already part of an archive stream and must reach the writer regardless).
package deadlinecheck

import (
	"go/ast"
	"strings"

	"streamgpu/internal/analysis"
)

const qosPkg = "streamgpu/internal/server/qos"

// Analyzer flags qos.Sched.Enqueue calls in functions that never consult a
// deadline.
var Analyzer = &analysis.Analyzer{
	Name: "deadlinecheck",
	Doc:  "functions calling (*qos.Sched).Enqueue must consult the request deadline or document the exemption in their doc comment",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		// The contract binds handler paths in production code; scheduler
		// tests drive Enqueue directly to probe fairness mechanics.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			check(pass, fn)
		}
	}
	return nil
}

// check inspects one function (function literals inside it included — the
// deadline decision may live in the enclosing scope).
func check(pass *analysis.Pass, fn *ast.FuncDecl) {
	var enqueues []*ast.CallExpr
	mentions := fn.Doc != nil && strings.Contains(strings.ToLower(fn.Doc.Text()), "deadline")
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "deadline") {
				mentions = true
			}
		case *ast.CallExpr:
			if isSchedEnqueue(pass, n) {
				enqueues = append(enqueues, n)
			}
		}
		return true
	})
	if mentions {
		return
	}
	for _, call := range enqueues {
		pass.Reportf(call.Pos(),
			"%s enqueues into the scheduler without consulting a deadline; thread the request deadline through (or document the exemption with the word \"deadline\" in the function's doc comment)",
			fn.Name.Name)
	}
}

// isSchedEnqueue reports whether call is (*qos.Sched).Enqueue.
func isSchedEnqueue(pass *analysis.Pass, call *ast.CallExpr) bool {
	callee := analysis.Callee(pass.TypesInfo, call)
	if callee == nil || callee.Name() != "Enqueue" {
		return false
	}
	named := analysis.ReceiverNamed(callee)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Sched" && obj.Pkg() != nil && obj.Pkg().Path() == qosPkg
}
