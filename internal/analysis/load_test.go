package analysis_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"streamgpu/internal/analysis"
)

// TestLoadExternalTestSeesExportTest loads a module whose external test
// package calls a method that only an export_test.go file declares, on a
// value it gets through a second package that imports the first, as go
// test accepts: the loader must check a_test against a with its test
// files, and b again against that a.
func TestLoadExternalTestSeesExportTest(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":           "module example.com/m\n\ngo 1.22\n",
		"a/a.go":           "package a\n\ntype T struct{ n int }\n",
		"a/export_test.go": "package a\n\nfunc (t T) N() int { return t.n }\n",
		"a/a_test.go":      "package a_test\n\nimport (\n\t\"testing\"\n\n\t\"example.com/m/b\"\n)\n\nfunc TestN(t *testing.T) {\n\tif b.Make().N() != 0 {\n\t\tt.Fatal(\"n\")\n\t}\n}\n",
		"b/b.go":           "package b\n\nimport \"example.com/m/a\"\n\nfunc Make() a.T { return a.T{} }\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := analysis.NewLoader(dir).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.PkgPath)
	}
	want := []string{"example.com/m/a", "example.com/m/a_test", "example.com/m/b"}
	if !slices.Equal(got, want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
}
