// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library.
//
// The repo's pipeline and GPU layers rely on conventions the compiler
// cannot check and no runtime test catches: completion events must be
// waited on, Run errors handled, and locks taken in one global order. Each
// is encoded as an Analyzer in a sibling package — gpuwait, runerr and
// lockorder — and enforced over the whole tree by cmd/streamvet. lockorder,
// the interprocedural one, builds on the sibling callgraph and dataflow
// packages.
//
// The x/tools module is deliberately not imported — the build must work from
// a bare Go toolchain with no module downloads — so this package provides
// the same Analyzer/Pass/Diagnostic shape plus a `go list`-based loader
// (load.go) and a driver (checker.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. It mirrors the x/tools type of the
// same name closely enough that the sibling analyzers could be ported to the
// real framework by changing imports.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("gpuwait").
	Name string
	// Doc is the analyzer's contract, shown by `streamvet -help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Program is the whole analysis run: every loaded package in
	// topological import order and a cache for program-wide structures
	// like the call graph and lockorder's summary table. Set by the
	// driver.
	Program *Program

	// Report delivers one diagnostic; set by the driver.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding. Position is resolved against the pass Fset.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the driver

	// Suppressed marks a finding covered by a streamvet:ignore directive;
	// SuppressReason carries the directive's mandatory reason. Set by the
	// driver after all passes ran.
	Suppressed     bool
	SuppressReason string
}

// Callee resolves the called function or method of call, or nil for calls
// through non-constant function values, type conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: pkg.Fn(...).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ReceiverNamed returns the named type of fn's receiver (unwrapping one
// pointer), or nil if fn is not a method.
func ReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsNamed reports whether t (unwrapping one pointer) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
