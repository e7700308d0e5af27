package analysis_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"streamgpu/internal/analysis"
)

// unreferencedAllowed lists functions the module keeps although no
// identifier names them, each with its reason. Expected empty: internal/ is
// not a library, so a function stays only while something calls it.
var unreferencedAllowed = map[string]string{}

// TestEveryFunctionIsReferenced fails on any function or method declared in
// the module that no identifier anywhere in the module references — tests,
// benchmark/, examples/ and cmd/ included; a function's references to
// itself do not count. Exempt are entry points (main, init, Test*,
// Benchmark*, Fuzz*, Example*) and methods that satisfy an interface the
// module declares or uses, or error, fmt.Stringer and json.Marshaler, since
// those are called through the interface.
//
// Functions are keyed by package path, receiver type name and name, not by
// types.Object: the loader type-checks a second copy of each module package
// for its importers, so one function has several objects.
func TestEveryFunctionIsReferenced(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := analysis.SharedLoader(root).Load("./...")
	if err != nil {
		t.Fatal(err)
	}

	type decl struct {
		pos  string
		recv types.Type // receiver's named type, nil for a function
		name string
	}
	decls := make(map[string]decl)
	refs := make(map[string]bool)
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		methodIface("String", types.Typ[types.String]),
		methodIface("MarshalJSON", types.NewSlice(types.Typ[types.Byte]), types.Universe.Lookup("error").Type()),
	}
	addIface := func(t types.Type) {
		if t == nil {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}

	for _, pkg := range pkgs {
		for _, uses := range []map[*ast.Ident]types.Object{pkg.Info.Defs, pkg.Info.Uses} {
			for _, obj := range uses {
				if obj == nil {
					continue
				}
				addIface(obj.Type())
				if fn, ok := obj.(*types.Func); ok {
					params := fn.Type().(*types.Signature).Params()
					for i := 0; i < params.Len(); i++ {
						addIface(params.At(i).Type())
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := pkg.Info.Defs[fd.Name].(*types.Func)
					self = funcKey(fn)
					if !entryPoint(fd) {
						decls[self] = decl{
							pos:  pkg.Fset.Position(fd.Pos()).String(),
							recv: recvNamed(fn),
							name: fn.Name(),
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
							if k := funcKey(fn); k != self {
								refs[k] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	var bad []string
	for k, d := range decls {
		if refs[k] || unreferencedAllowed[k] != "" {
			continue
		}
		if d.recv != nil && satisfiesAny(d.recv, d.name, ifaces) {
			continue
		}
		bad = append(bad, d.pos+": "+k)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("unreferenced: %s", b)
	}
	for k, reason := range unreferencedAllowed {
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", k)
		}
	}
}

// moduleRoot walks up from the test's directory to the one holding go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// entryPoint reports whether fd is called by the toolchain, not by code.
func entryPoint(fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		return false
	}
	name := fd.Name.Name
	if name == "main" || name == "init" {
		return true
	}
	for _, p := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// recvNamed returns fn's receiver type (one pointer unwrapped, generic
// origin), or nil for a plain function.
func recvNamed(fn *types.Func) types.Type {
	if named := analysis.ReceiverNamed(fn.Origin()); named != nil {
		return named.Origin()
	}
	return nil
}

// funcKey names fn as "pkgpath.Name" or "pkgpath.(Recv).Name", the same for
// every type-checked copy of its package.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return path + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	name := types.TypeString(recv, func(*types.Package) string { return "" })
	if named, ok := recv.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return path + ".(" + name + ")." + fn.Name()
}

// satisfiesAny reports whether the method name of recv (or *recv) belongs to
// an interface in ifaces that recv's pointer method set implements. The
// check compares method names and signatures, because the interface
// and the receiver may come from different type-checked copies of a package.
func satisfiesAny(recv types.Type, name string, ifaces []*types.Interface) bool {
	mset := types.NewMethodSet(types.NewPointer(recv))
	has := func(m *types.Func) bool {
		for i := 0; i < mset.Len(); i++ {
			if obj := mset.At(i).Obj(); obj.Name() == m.Name() {
				return sameSig(obj.Type(), m.Type())
			}
		}
		return false
	}
	for _, it := range ifaces {
		found, all := false, true
		for i := 0; i < it.NumMethods() && all; i++ {
			m := it.Method(i)
			found = found || m.Name() == name
			all = has(m)
		}
		if found && all {
			return true
		}
	}
	return false
}

// sameSig reports whether two method signatures have the same parameter and
// result types. Types from different copies of a module package are never
// identical, so those compare by their path-qualified names.
func sameSig(a, b types.Type) bool {
	sa, sb := a.(*types.Signature), b.(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	same := func(x, y *types.Tuple) bool {
		if x.Len() != y.Len() {
			return false
		}
		for i := 0; i < x.Len(); i++ {
			tx, ty := x.At(i).Type(), y.At(i).Type()
			if !types.Identical(tx, ty) && types.TypeString(tx, qual) != types.TypeString(ty, qual) {
				return false
			}
		}
		return true
	}
	return sa.Variadic() == sb.Variadic() && same(sa.Params(), sb.Params()) && same(sa.Results(), sb.Results())
}

// methodIface builds a one-method interface whose method takes nothing and
// returns results: fmt.Stringer and json.Marshaler, which the standard
// library calls by reflection and the module need not name.
func methodIface(name string, results ...types.Type) *types.Interface {
	vars := make([]*types.Var, len(results))
	for i, r := range results {
		vars[i] = types.NewVar(0, nil, "", r)
	}
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(vars...), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, name, sig)}, nil).Complete()
}
