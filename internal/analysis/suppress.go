package analysis

import (
	"go/token"
	"strings"
)

// Suppression comments let a finding be acknowledged in place:
//
//	p.Run() //streamvet:ignore runerr the stream's outcome is read from its sink instead
//
// The directive names exactly one analyzer and must carry a reason — a
// bare ignore is itself a diagnostic, so the tree can never accumulate
// unexplained exemptions. A directive covers diagnostics of that analyzer
// on its own line or on the line directly below (for the comment-above
// style). Matched diagnostics stay in the output marked Suppressed (and
// appear in -json) but do not fail the run.

const ignorePrefix = "streamvet:ignore"

// ignoreKey addresses one suppressible line.
type ignoreKey struct {
	file     string // full filename as recorded in the FileSet
	line     int
	analyzer string
}

// collectIgnores parses every suppression directive in pkgs. known is the
// set of analyzer names the run recognizes; directives outside it are
// malformed (catches typos that would otherwise silently suppress
// nothing). Returns the suppression index (key → reason) and a diagnostic
// per malformed directive.
func collectIgnores(pkgs []*Package, known map[string]bool) (map[ignoreKey]string, []Diagnostic) {
	index := make(map[ignoreKey]string)
	var malformed []Diagnostic
	seen := make(map[token.Pos]bool) // a file shared by two packages parses once per Fset, but guard anyway
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//"+ignorePrefix)
					if !ok {
						continue
					}
					if seen[c.Pos()] {
						continue
					}
					seen[c.Pos()] = true
					bad := func(msg string) {
						malformed = append(malformed, Diagnostic{
							Pos: c.Pos(), Message: msg, Analyzer: "streamvet",
						})
					}
					fields := strings.Fields(text)
					if len(fields) == 0 {
						bad("streamvet:ignore needs an analyzer name and a reason")
						continue
					}
					name := fields[0]
					if !known[name] {
						bad("streamvet:ignore names unknown analyzer " + name)
						continue
					}
					reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), name))
					if reason == "" {
						bad("streamvet:ignore " + name + " needs a reason")
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					index[ignoreKey{pos.Filename, pos.Line, name}] = reason
				}
			}
		}
	}
	return index, malformed
}

// applySuppressions marks every diagnostic covered by a directive on its
// line or the line above.
func applySuppressions(fset *token.FileSet, diags []Diagnostic, index map[ignoreKey]string) {
	if len(index) == 0 {
		return
	}
	for i := range diags {
		if diags[i].Analyzer == "streamvet" {
			continue // malformed-directive findings are not suppressible
		}
		pos := fset.Position(diags[i].Pos)
		for _, line := range [2]int{pos.Line, pos.Line - 1} {
			if reason, ok := index[ignoreKey{pos.Filename, line, diags[i].Analyzer}]; ok {
				diags[i].Suppressed = true
				diags[i].SuppressReason = reason
				break
			}
		}
	}
}
