package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"sort"
)

// RunAnalyzers applies every analyzer to every package and returns the
// combined diagnostics in a stable order (file, offset, analyzer name,
// message — so repeated runs diff cleanly).
//
// Packages are visited in topological import order under one shared
// Program, which is what lets interprocedural analyzers read the summaries
// of callees solved while their packages were analyzed earlier.
// Suppression directives (see suppress.go) are applied before returning:
// covered diagnostics come back with Suppressed set rather than dropped,
// so every consumer — text, JSON, CI — sees the same list and chooses its
// own filter.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog := NewProgram(pkgs)
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	ignores, diags := collectIgnores(pkgs, known)

	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Program:   prog,
				Report: func(d Diagnostic) {
					d.Analyzer = a.Name
					diags = append(diags, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	if len(pkgs) > 0 {
		fset := pkgs[0].Fset
		applySuppressions(fset, diags, ignores)
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Offset != pj.Offset {
				return pi.Offset < pj.Offset
			}
			if diags[i].Analyzer != diags[j].Analyzer {
				return diags[i].Analyzer < diags[j].Analyzer
			}
			return diags[i].Message < diags[j].Message
		})
	}
	return diags, nil
}

// PrintDiagnostics writes unsuppressed diagnostics in the canonical
// "file:line:col: message [analyzer]" form and reports how many there
// were; suppressed findings are omitted (they are acknowledged in source).
func PrintDiagnostics(w io.Writer, fset *token.FileSet, diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		fmt.Fprintf(w, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
		n++
	}
	return n
}

// JSONDiagnostic is the -json wire form of one finding. File is relative
// to the base directory when possible, so CI annotations are stable across
// checkouts.
type JSONDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

// WriteJSON emits every diagnostic — suppressed included, flagged — as one
// JSON array, in the stable RunAnalyzers order.
func WriteJSON(w io.Writer, fset *token.FileSet, baseDir string, diags []Diagnostic) error {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		file := pos.Filename
		if baseDir != "" {
			if rel, err := filepath.Rel(baseDir, file); err == nil {
				file = filepath.ToSlash(rel)
			}
		}
		out = append(out, JSONDiagnostic{
			File: file, Line: pos.Line, Col: pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
			Suppressed: d.Suppressed, Reason: d.SuppressReason,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
