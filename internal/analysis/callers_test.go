package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"streamgpu/internal/analysis"
)

// unreferencedAllowed lists functions the module keeps although no non-test
// code names them, each with its reason. internal/ is not a library, so a
// function stays only while a program calls it or a test needs it: a
// reference the program is checked against, or the view a test asserts
// through. A new function that only tests call needs a line here.
var unreferencedAllowed = map[string]string{
	// References the fast paths are checked against.
	"streamgpu/internal/lzss.FindMatchesRef":   "reference: the brute-force backward window scan every matcher and kernel is checked against",
	"streamgpu/internal/lzss.BruteKernel":      "reference: Listing 3's kernel as the paper writes it, bit-identical to FindMatchesRef; the gpu and lzss tests check the fast kernel against it",
	"streamgpu/internal/lzss.Compress":         "reference: one block on a fresh Matcher, what the dedup lane tests and the lzss round-trip tests compare against",
	"streamgpu/internal/lzss.FindMatches":      "the lzss tests' all-positions matcher on a pooled Matcher, checked against FindMatchesRef",
	"streamgpu/internal/rabin.(Chunker).Split": "reference: the blocks as slices, which the rabin and workload tests check boundaries and duplicate shares through",

	// Views and set-ups the tests assert through.
	"streamgpu/internal/bench.TestConfig":                "the cheap Fig. 1 scale shared by the root benchmarks and the bench shape tests",
	"streamgpu/internal/bench.(Prep).RunRowPerKernel":    "Fig. 1's row-per-kernel step without its utilization, as the root benchmarks and the bench shape tests time it",
	"streamgpu/internal/cluster.(Node).StoreRef":         "the cluster tests reach a node's store through it",
	"streamgpu/internal/cluster.(Node).Owner":            "the cluster tests check hash ownership through it",
	"streamgpu/internal/cluster.(Node).Members":          "the cluster tests check membership convergence through it",
	"streamgpu/internal/cluster.(Store).RemoteHits":      "the cluster tests count cross-node duplicate hits through it",
	"streamgpu/internal/cluster.(Detector).StateOf":      "the cluster tests read the failure detector's verdicts through it",
	"streamgpu/internal/dedup.(Store).Len":               "the dedup tests count the store's distinct hashes through it",
	"streamgpu/internal/des.(Event).Fired":               "the des tests read an event's state through it",
	"streamgpu/internal/des.(Event).Value":               "the des tests read an event's value through it",
	"streamgpu/internal/des.(Event).At":                  "the des tests read an event's firing time through it",
	"streamgpu/internal/des.(Event).FireAt":              "the des tests schedule a firing in virtual time with it",
	"streamgpu/internal/des.(Resource).InUse":            "the des tests check a resource's occupancy through it",
	"streamgpu/internal/des.(Resource).Cap":              "the des tests check a resource's capacity through it",
	"streamgpu/internal/fault.(Injector).Stats":          "the fault tests compare two schedules' counters through it",
	"streamgpu/internal/fault.IsTransient":               "the fault tests check the error classes through it",
	"streamgpu/internal/ff.SliceSource":                  "the ff tests' fixed-input source",
	"streamgpu/internal/ff.(Pipeline).SetQueueCap":       "the ff tests shrink the queues with it to force backpressure",
	"streamgpu/internal/ff.(SPSC).Cap":                   "the ff tests check the ring's rounded capacity through it",
	"streamgpu/internal/gpu.(Device).MemUsed":            "device-memory accounting, read by the gpu tests and dedup's per-batch free test",
	"streamgpu/internal/gpu.(Device).Sim":                "gpu's tests spawn host processes on a device's simulation through it",
	"streamgpu/internal/gpu.(Thread).GlobalY":            "the gpu tests check 2-D thread indexing through it",
	"streamgpu/internal/gpu.(Thread).GlobalLinear":       "the gpu tests check that warps form in x, y, z order through it",
	"streamgpu/internal/gpu/cuda.(Runtime).Device":       "the cuda tests inspect the device behind the facade through it",
	"streamgpu/internal/health.(Scoreboard).Quarantined": "the quarantine view the health tests and the dedup placement tests assert on",
	"streamgpu/internal/mandel.(Image).Complete":         "the mandel tests check that every row arrived through it",
	"streamgpu/internal/mandel.TestParams":               "the mandel tests' reduced configuration",
	"streamgpu/internal/pool.(Pool).Stats":               "the traffic counters the pool tests and dedup's pool-balance test read",
	"streamgpu/internal/pool.(Slices).Stats":             "the pool tests read a slice pool's counters through it",
	"streamgpu/internal/pool.(Slices).ClassStats":        "the pool tests read a slice pool's per-class counters through it",
	"streamgpu/internal/pool.NewInt32s":                  "the pool tests build an int32 slice pool with it",
	"streamgpu/internal/server/wire.EncodedLen":          "the wire tests check the encoder's frame size against it",
	"streamgpu/internal/stats.(Histogram).Observe":       "the stats tests fill a histogram with it; telemetry observes through atomics instead",
	"streamgpu/internal/stats.(Histogram).Mean":          "the stats tests read a histogram's mean through it",
	"streamgpu/internal/stats.(Sample).StdDev":           "the stats tests check the sample summary through it",
	"streamgpu/internal/stats.(Sample).Min":              "the stats tests check the sample summary through it",
	"streamgpu/internal/stats.(Sample).Max":              "the stats tests check the sample summary through it",
	"streamgpu/internal/stats.(Table).Find":              "the row lookup the stats tests and the bench shape tests read figures through",
	"streamgpu/internal/telemetry.(Gauge).Set":           "the telemetry tests set a gauge directly with it",
	"streamgpu/internal/telemetry.(Span).Child":          "the telemetry tests nest spans with it",

	// Whole surfaces kept for a stated reason.
	"streamgpu/internal/gpu/cuda.(Runtime).DeviceCount": "CUDA facade: cudaGetDeviceCount, part of the device-management API the paper's CUDA code uses",
	"streamgpu/internal/gpu/cuda.(Runtime).GetDevice":   "CUDA facade: cudaGetDevice, the per-thread counterpart of SetDevice",
	"streamgpu/internal/gpu/opencl.(Context).Devices":   "OpenCL facade: clGetDeviceIDs, part of the context API the paper's OpenCL code uses",
	"streamgpu/internal/ff.(MPMC).Cap":                  "mpmc.go goes whole once benchmark/micro.go stops timing it (ROADMAP item 1); its tests cover the whole queue until then",
	"streamgpu/internal/ff.(MPMC).Len":                  "see (MPMC).Cap",
	"streamgpu/internal/ff.(MPMC).TryPushN":             "see (MPMC).Cap",
	"streamgpu/internal/ff.(MPMC).TryPopN":              "see (MPMC).Cap",
	"streamgpu/internal/ff.(MPMC).Close":                "see (MPMC).Cap",
}

// testSupport lists the packages (and their subpackages) that exist for
// tests to call, whose functions are exempt.
var testSupport = []string{
	"streamgpu/internal/testutil",
	"streamgpu/internal/analysis/analysistest",
}

// TestEveryFunctionIsReferenced fails on any function or method declared in
// the module's non-test code that no identifier in the module's non-test
// code references — benchmark/, examples/ and cmd/ included, _test.go files
// not; a function's references to itself do not count. Exempt are entry
// points (main, init), the test-support packages, and methods that satisfy
// an interface the module's non-test code declares or uses, or error,
// fmt.Stringer and json.Marshaler, since those are called through the
// interface.
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
	testRefs := make(map[string]map[string]bool) // function -> test packages naming it
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
		inTest := func(pos token.Pos) bool {
			return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
		}
		for _, uses := range []map[*ast.Ident]types.Object{pkg.Info.Defs, pkg.Info.Uses} {
			for id, obj := range uses {
				if obj == nil {
					continue
				}
				if inTest(id.Pos()) {
					if fn, ok := obj.(*types.Func); ok {
						k := funcKey(fn)
						if testRefs[k] == nil {
							testRefs[k] = make(map[string]bool)
						}
						testRefs[k][strings.TrimSuffix(pkg.PkgPath, "_test")] = true
					}
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
		support := slices.ContainsFunc(testSupport, func(p string) bool {
			return pkg.PkgPath == p || strings.HasPrefix(pkg.PkgPath, p+"/")
		})
		for _, f := range pkg.Files {
			if inTest(f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := pkg.Info.Defs[fd.Name].(*types.Func)
					self = funcKey(fn)
					if !support && !entryPoint(fd) {
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
		users := "no test"
		if len(testRefs[k]) > 0 {
			var pkgs []string
			for p := range testRefs[k] {
				pkgs = append(pkgs, p)
			}
			sort.Strings(pkgs)
			users = "tests of " + strings.Join(pkgs, ", ")
		}
		bad = append(bad, d.pos+": "+k+" (named only by "+users+")")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("unreferenced: %s", b)
	}
	for k, reason := range unreferencedAllowed {
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", k)
		}
		if _, ok := decls[k]; !ok || refs[k] {
			t.Errorf("allowlist entry %s names no unreferenced function", k)
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
	return name == "main" || name == "init"
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
