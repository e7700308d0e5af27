package analysis_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"streamgpu/internal/analysis"
	"streamgpu/internal/analysis/runerr"
)

// loadSuppress runs runerr over the suppress fixture, which drops a Run
// error under each directive shape.
func loadSuppress(t *testing.T) (*analysis.Loader, []analysis.Diagnostic) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.SharedLoader(cwd)
	pkg, err := loader.CheckDir(filepath.Join(cwd, "testdata/suppress"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{runerr.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	return loader, diags
}

func TestSuppressionsAndMalformedDirectives(t *testing.T) {
	loader, diags := loadSuppress(t)

	var suppressed, unsuppressedDrops int
	var malformed []string
	for _, d := range diags {
		switch {
		case d.Analyzer == "streamvet":
			malformed = append(malformed, d.Message)
		case d.Suppressed:
			suppressed++
			if d.SuppressReason != "fixture proves a reasoned directive suppresses the diagnostic" {
				t.Errorf("suppressed diagnostic carries reason %q", d.SuppressReason)
			}
		default:
			unsuppressedDrops++
		}
	}
	// One reasoned directive suppresses its finding; the three malformed
	// directives suppress nothing, so their findings stay reported.
	if suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", suppressed)
	}
	if unsuppressedDrops != 3 {
		t.Errorf("unsuppressed runerr diagnostics = %d, want 3", unsuppressedDrops)
	}
	wantMalformed := []string{
		"streamvet:ignore runerr needs a reason",
		"streamvet:ignore needs an analyzer name and a reason",
		"streamvet:ignore names unknown analyzer nosuchcheck",
	}
	sort.Strings(malformed)
	sort.Strings(wantMalformed)
	if strings.Join(malformed, "|") != strings.Join(wantMalformed, "|") {
		t.Errorf("malformed directives = %q, want %q", malformed, wantMalformed)
	}

	// PrintDiagnostics skips suppressed entries and reports the rest.
	var buf bytes.Buffer
	n := analysis.PrintDiagnostics(&buf, loader.Fset, diags)
	if want := len(diags) - 1; n != want {
		t.Errorf("PrintDiagnostics = %d, want %d", n, want)
	}
	if strings.Contains(buf.String(), "fixture proves") {
		t.Error("suppressed diagnostic leaked into text output")
	}
}

func TestDiagnosticsSortedAndJSON(t *testing.T) {
	loader, diags := loadSuppress(t)

	// Stable order: by file, then position, then analyzer.
	positions := make([]int, len(diags))
	for i, d := range diags {
		positions[i] = loader.Fset.Position(d.Pos).Offset
	}
	if !sort.IntsAreSorted(positions) {
		t.Errorf("diagnostics not position-sorted: %v", positions)
	}

	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, loader.Fset, cwd, diags); err != nil {
		t.Fatal(err)
	}
	var out []analysis.JSONDiagnostic
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if len(out) != len(diags) {
		t.Fatalf("JSON has %d entries, want %d (suppressed included)", len(out), len(diags))
	}
	var haveSuppressed bool
	for _, d := range out {
		if d.File != "testdata/suppress/suppress.go" {
			t.Errorf("JSON file path %q not repo-relative", d.File)
		}
		if d.Suppressed {
			haveSuppressed = true
			if d.Reason == "" {
				t.Error("suppressed JSON entry missing its reason")
			}
		}
	}
	if !haveSuppressed {
		t.Error("JSON omits the suppressed diagnostic")
	}
}
