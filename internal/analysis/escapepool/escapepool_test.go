package escapepool_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"streamgpu/internal/analysis"
	"streamgpu/internal/analysis/analysistest"
	"streamgpu/internal/analysis/escapepool"
)

func TestAnalyzer(t *testing.T) {
	analysistest.Run(t, escapepool.Analyzer, "testdata/flagged", "testdata/clean", "testdata/unreleased", "testdata/released")
}

// TestCrossPackageSummary loads two fixture packages as one program. The
// caller reaches the callee package's methods only through interface (CHA)
// edges, so its findings depend on summaries solved while the callee
// package was analyzed: a releasing method keeps the caller clean, a
// borrow-only one leaves it owning a leaked buffer.
func TestCrossPackageSummary(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.SharedLoader(cwd)
	pkgs, err := loader.Load("./testdata/cross/callee", "./testdata/cross/caller")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{escapepool.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message))
	}
	want := "caller.go:20: pooled value b is passed to Peek, which only borrows it, and is never released; the caller still owns it"
	if len(got) != 1 || got[0] != want {
		t.Fatalf("diagnostics = %q, want [%q]", got, want)
	}
}
