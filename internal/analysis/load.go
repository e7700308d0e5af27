package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis. In-package
// test files (TestGoFiles) are compiled into the same Package; external test
// packages (XTestGoFiles, package foo_test) load as a separate Package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Deps         []string
	Export       string
	Error        *struct{ Err string }
}

// Loader resolves and type-checks packages of the module rooted at Dir. It
// resolves intra-module imports from source (so analyzers see one type
// identity per module package) and everything else from the toolchain's
// compiled export data via `go list -export`, which works fully offline —
// the reason this loader exists instead of golang.org/x/tools/go/packages.
type Loader struct {
	Dir  string
	Fset *token.FileSet

	mu      sync.Mutex
	modPath string
	gcImp   types.Importer            // shared: one identity per stdlib package
	exports map[string]string         // import path -> export-data file
	srcPkgs map[string]*types.Package // import path -> source-checked package
	listed  map[string]*listedPkg
	parsed  map[string]*ast.File // file path -> parsed syntax (shared Fset)
	dirPkgs map[string]*Package  // dir -> CheckDir result
}

// Loaders are expensive: each one re-reads stdlib export data and
// re-parses every file it touches. sharedLoaders memoizes one Loader per
// module directory for the life of the process, so the analyzer test
// binaries (one analysistest.Run per fixture directory) and repeated
// programmatic loads stop re-type-checking the world — the shared Fset and
// importer also guarantee one type identity per package across calls.
var (
	sharedMu      sync.Mutex
	sharedLoaders = make(map[string]*Loader)
)

// SharedLoader returns the process-wide Loader for the module containing
// dir, creating it on first use.
func SharedLoader(dir string) *Loader {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	l, ok := sharedLoaders[dir]
	if !ok {
		l = NewLoader(dir)
		sharedLoaders[dir] = l
	}
	return l
}

// NewLoader creates a loader for the module containing dir.
func NewLoader(dir string) *Loader {
	l := &Loader{
		Dir:     dir,
		Fset:    token.NewFileSet(),
		exports: make(map[string]string),
		srcPkgs: make(map[string]*types.Package),
		listed:  make(map[string]*listedPkg),
		parsed:  make(map[string]*ast.File),
		dirPkgs: make(map[string]*Package),
	}
	// One gc importer for the loader's lifetime: it memoizes by import path,
	// so every type-check sees the same *types.Package for, say, "context" —
	// mixing instances would make identical types compare unequal.
	l.gcImp = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, err := l.exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	})
	return l
}

// goList runs `go list -json` with extra flags and patterns, decoding the
// JSON stream.
func (l *Loader) goList(flags []string, patterns []string) ([]*listedPkg, error) {
	args := append([]string{"list", "-json"}, flags...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil && len(out) == 0 {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportFile returns the compiled export-data file for path, shelling out to
// `go list -export` on a miss (results are cached).
func (l *Loader) exportFile(path string) (string, error) {
	l.mu.Lock()
	f, ok := l.exports[path]
	l.mu.Unlock()
	if ok {
		return f, nil
	}
	pkgs, err := l.goList([]string{"-export"}, []string{path})
	if err != nil {
		return "", err
	}
	if len(pkgs) != 1 || pkgs[0].Export == "" {
		return "", fmt.Errorf("no export data for %q", path)
	}
	l.mu.Lock()
	l.exports[path] = pkgs[0].Export
	l.mu.Unlock()
	return pkgs[0].Export, nil
}

// prefetchExports bulk-loads export-data paths for the patterns' full
// dependency closure, including test dependencies, in one go command.
func (l *Loader) prefetchExports(patterns []string) {
	pkgs, err := l.goList([]string{"-deps", "-export", "-test", "-e"}, patterns)
	if err != nil {
		return // lazy per-path lookup will recover
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range pkgs {
		// Skip synthesized test variants ("pkg [pkg.test]"): their export
		// data must not shadow the plain package's.
		if p.Export == "" || strings.Contains(p.ImportPath, " ") {
			continue
		}
		if _, ok := l.exports[p.ImportPath]; !ok {
			l.exports[p.ImportPath] = p.Export
		}
	}
}

// modulePath reports (and caches) the module path of the module rooted at Dir.
func (l *Loader) modulePath() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.modPath == "" {
		cmd := exec.Command("go", "list", "-m")
		cmd.Dir = l.Dir
		if out, err := cmd.Output(); err == nil {
			l.modPath = strings.TrimSpace(string(out))
		}
	}
	return l.modPath
}

// Importer returns a types.Importer backed by the loader: intra-module
// packages are type-checked from source, others come from export data.
func (l *Loader) Importer() types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if l.inModule(path) {
			return l.sourcePackage(path)
		}
		return l.gcImp.Import(path)
	})
}

// inModule reports whether path is a package of the module rooted at Dir.
func (l *Loader) inModule(path string) bool {
	mod := l.modulePath()
	return mod != "" && (path == mod || strings.HasPrefix(path, mod+"/"))
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// sourcePackage type-checks an intra-module package (without its test files)
// from source, memoized so every importer sees one identity per path.
func (l *Loader) sourcePackage(path string) (*types.Package, error) {
	l.mu.Lock()
	pkg, ok := l.srcPkgs[path]
	l.mu.Unlock()
	if ok {
		return pkg, nil
	}
	pkg, err := l.fromSource(path, l.Importer())
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.srcPkgs[path] = pkg
	l.mu.Unlock()
	return pkg, nil
}

// list returns the `go list` entry of path, listing it on a miss.
func (l *Loader) list(path string) (*listedPkg, error) {
	l.mu.Lock()
	lp, ok := l.listed[path]
	l.mu.Unlock()
	if ok {
		return lp, nil
	}
	pkgs, err := l.goList(nil, []string{path})
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("go list %q: %d packages", path, len(pkgs))
	}
	l.mu.Lock()
	l.listed[path] = pkgs[0]
	l.mu.Unlock()
	return pkgs[0], nil
}

// fromSource type-checks the intra-module package path, without its test
// files, resolving its imports with imp.
func (l *Loader) fromSource(path string, imp types.Importer) (*types.Package, error) {
	lp, err := l.list(path)
	if err != nil {
		return nil, err
	}
	files, err := l.parseFiles(lp.Dir, append(append([]string{}, lp.GoFiles...), lp.CgoFiles...))
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return pkg, nil
}

// xtestImporter resolves the imports of x's external test package as go
// test builds it: x is self, the package checked with its _test.go files,
// so an export_test.go accessor is visible, and every module package that
// imports x, directly or not, is checked again against self, so each
// package still has one identity. Everything else is the loader's.
func (l *Loader) xtestImporter(x string, self *types.Package) types.Importer {
	base := l.Importer()
	pkgs := map[string]*types.Package{x: self}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg, ok := pkgs[path]; ok {
			return pkg, nil
		}
		if !l.inModule(path) {
			return base.Import(path)
		}
		lp, err := l.list(path)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(lp.Deps, x) {
			return base.Import(path)
		}
		pkg, err := l.fromSource(path, imp)
		if err != nil {
			return nil, err
		}
		pkgs[path] = pkg
		return pkg, nil
	}
	return imp
}

// parseFiles parses the named files in dir, memoized per path: a package's
// non-test files are parsed both for its analysis load (with tests) and
// its import-from-source variant (without), and the shared Fset makes the
// same *ast.File safe to type-check in both.
func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		path := filepath.Join(dir, name)
		l.mu.Lock()
		f, ok := l.parsed[path]
		l.mu.Unlock()
		if !ok {
			var err error
			f, err = parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			l.mu.Lock()
			l.parsed[path] = f
			l.mu.Unlock()
		}
		files = append(files, f)
	}
	return files, nil
}

// newInfo allocates the types.Info maps analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load enumerates the packages matching patterns (as `go list` would) and
// returns them parsed and type-checked, including test files: in-package
// test files join their package; external _test packages become separate
// entries with PkgPath "<path>_test", checked against their package with
// its test files, as go test builds them (xtestImporter).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l.prefetchExports(patterns)
	listed, err := l.goList(nil, patterns)
	if err != nil {
		return nil, err
	}
	// Record every listing before type-checking any: a package imported
	// from source before its own turn then needs no `go list` of its own.
	l.mu.Lock()
	for _, lp := range listed {
		l.listed[lp.ImportPath] = lp
	}
	l.mu.Unlock()
	var out []*Package
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		names := append(append([]string{}, lp.GoFiles...), lp.CgoFiles...)
		names = append(names, lp.TestGoFiles...)
		files, err := l.parseFiles(lp.Dir, names)
		if err != nil {
			return nil, err
		}
		pkg, err := l.check(lp.ImportPath, files, l.Importer())
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{
			PkgPath: lp.ImportPath, Dir: lp.Dir, Fset: l.Fset,
			Files: files, Types: pkg.Types, Info: pkg.Info,
		})

		if len(lp.XTestGoFiles) > 0 {
			xfiles, err := l.parseFiles(lp.Dir, lp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			xpkg, err := l.check(lp.ImportPath+"_test", xfiles, l.xtestImporter(lp.ImportPath, pkg.Types))
			if err != nil {
				return nil, err
			}
			out = append(out, &Package{
				PkgPath: lp.ImportPath + "_test", Dir: lp.Dir, Fset: l.Fset,
				Files: xfiles, Types: xpkg.Types, Info: xpkg.Info,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// checked pairs a types.Package with its Info.
type checked struct {
	Types *types.Package
	Info  *types.Info
}

// check type-checks files as package path, resolving imports with imp.
// Type errors are fatal: analyzers need complete type information.
func (l *Loader) check(path string, files []*ast.File, imp types.Importer) (*checked, error) {
	info := newInfo()
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, firstErr)
	}
	return &checked{Types: pkg, Info: info}, nil
}

// CheckDir parses and type-checks every .go file directly inside dir as one
// package — the entry point analysistest uses for testdata fixtures, which
// `go list` cannot see (testdata directories are invisible to the go tool).
// Results are memoized by dir, so several analyzers testing against the
// same fixture pay for one load.
func (l *Loader) CheckDir(dir string) (*Package, error) {
	l.mu.Lock()
	cached, ok := l.dirPkgs[dir]
	l.mu.Unlock()
	if ok {
		return cached, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	files, err := l.parseFiles(dir, names)
	if err != nil {
		return nil, err
	}
	pkg, err := l.check("fixture/"+filepath.Base(dir), files, l.Importer())
	if err != nil {
		return nil, err
	}
	out := &Package{
		PkgPath: "fixture/" + filepath.Base(dir), Dir: dir, Fset: l.Fset,
		Files: files, Types: pkg.Types, Info: pkg.Info,
	}
	l.mu.Lock()
	l.dirPkgs[dir] = out
	l.mu.Unlock()
	return out, nil
}
