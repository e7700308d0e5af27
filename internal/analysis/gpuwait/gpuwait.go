// Package gpuwait defines an analyzer enforcing the completion-event
// contract of the simulated GPU stream API.
//
// Every asynchronous stream operation (Stream.CopyH2D, CopyD2H, Launch,
// Record and their Exclusive/Staged variants) returns a *des.Event
// that carries the operation's outcome — including any injected fault
// (gpu.WaitErr surfaces those as errors). A call whose event is discarded
// silently swallows faults: the program observes neither completion nor
// failure, which is exactly the lost-completion-event bug class the paper
// warns about. The analyzer flags stream-op calls used as expression
// statements or spawned with go/defer. Assigning the event to a variable
// satisfies the contract (the variable is then subject to ordinary
// unused-variable checking); assigning to the blank identifier (`_ = ...`)
// is the errcheck-style explicit opt-out for code that intentionally
// ignores the outcome — the author has visibly acknowledged the event.
package gpuwait

import (
	"go/ast"
	"go/types"

	"streamgpu/internal/analysis"
)

// gpuPkg and desPkg are the packages whose types define the contract.
const (
	gpuPkg = "streamgpu/internal/gpu"
	desPkg = "streamgpu/internal/des"
)

// Analyzer flags discarded completion events from gpu.Stream operations.
var Analyzer = &analysis.Analyzer{
	Name: "gpuwait",
	Doc: "completion events returned by gpu.Stream operations must be waited on or assigned; " +
		"a dropped event discards injected faults",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok && isEventCall(pass.TypesInfo, call) {
					pass.Reportf(call.Pos(), "result of %s is a completion event; wait on it (gpu.WaitErr) or assign it", callName(call))
				}
			case *ast.GoStmt:
				if isEventCall(pass.TypesInfo, stmt.Call) {
					pass.Reportf(stmt.Call.Pos(), "completion event of %s is discarded by go statement", callName(stmt.Call))
				}
			case *ast.DeferStmt:
				if isEventCall(pass.TypesInfo, stmt.Call) {
					pass.Reportf(stmt.Call.Pos(), "completion event of %s is discarded by defer statement", callName(stmt.Call))
				}
			}
			return true
		})
	}
	return nil
}

// isEventCall reports whether call invokes a method on gpu.Stream whose
// single result is a *des.Event.
func isEventCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	if fn == nil {
		return false
	}
	recv := analysis.ReceiverNamed(fn)
	if recv == nil || recv.Obj().Name() != "Stream" || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != gpuPkg {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Results().Len() == 1 && analysis.IsNamed(sig.Results().At(0).Type(), desPkg, "Event")
}

// callName renders the call for diagnostics ("st.Launch").
func callName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			return id.Name + "." + sel.Sel.Name
		}
		return sel.Sel.Name
	}
	return "call"
}
