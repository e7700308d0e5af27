// Package lockorder defines an analyzer that builds a lock-acquisition
// graph across sync.Mutex/sync.RWMutex call chains and flags cycles: if one
// code path acquires A then B while another acquires B then A, the two can
// deadlock under concurrency even though each path is locally correct. The
// serving layer's lock chains (session locks feeding the qos scheduler's
// lane lock, pipeline source vs. admission) are exactly where this bites.
//
// How it works (the first consumer of the interprocedural engine, see
// DESIGN.md §13): per function, a forward dataflow over the CFG tracks the
// set of locks that may be held at each point. Direct Lock/RLock calls add
// a lock, Unlock/RUnlock remove it, and a deferred Unlock keeps the lock
// held to the end of the function. Calls apply the callee's summary (what
// it acquires, still holds at return, and releases), computed callee-first
// — package topological order across packages, a small fixpoint within
// one. Every acquisition made while other locks are held contributes
// held→acquired edges to one program-wide graph; an edge that closes a
// cycle is reported at the acquisition that closed it.
//
// Lock identity is type-based: "pkg.Type.field" for a mutex field (or
// embedded mutex), "pkg.var" for a package-level mutex. Two instances of
// the same struct share an identity, so hand-over-hand locking over
// siblings (lock a1.mu then a2.mu) does not self-edge — cycles need at
// least two distinct identities. The exception is an exclusive Lock of a
// key already held through the *same receiver expression*, which is a
// guaranteed self-deadlock and flagged directly.
//
// Known imprecision (documented limitation): goroutine bodies spawned with
// `go` are analyzed as their own functions but acquisitions there do not
// order against locks the spawner holds, and lock sets flow through
// unresolved call sites (function values the call graph cannot see) as if
// the callee acquired nothing.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"streamgpu/internal/analysis"
	"streamgpu/internal/analysis/callgraph"
	"streamgpu/internal/analysis/dataflow"
)

// Analyzer flags lock-acquisition cycles and same-receiver double locks.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "acquiring mutexes in inconsistent order across code paths can deadlock; " +
		"every pair of locks must be acquired in one global order, including through callees",
	Run: run,
}

// summary is one function's lock behaviour: the lock identities it may
// acquire while running (transitively), those still held when it returns,
// and those it may release on the caller's behalf.
type summary struct {
	Acquires []string
	Holds    []string
	Releases []string
}

func (f *summary) equal(g *summary) bool {
	if g == nil {
		return false
	}
	eq := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	return eq(f.Acquires, g.Acquires) && eq(f.Holds, g.Holds) && eq(f.Releases, g.Releases)
}

// state is the program-wide accumulation shared by every package's pass.
type state struct {
	// edges is the acquisition graph: from -> to -> first site.
	edges map[string]map[string]edgeSite
	// reported dedupes cycles by canonical key.
	reported map[string]bool
}

type edgeSite struct {
	pos token.Pos
	fn  string
}

func run(pass *analysis.Pass) error {
	st := pass.Program.Cached("lockorder.state", func() any {
		return &state{
			edges:    make(map[string]map[string]edgeSite),
			reported: make(map[string]bool),
		}
	}).(*state)
	a := &analyzer{pass: pass, st: st, sums: callgraph.SummariesOf[*summary](pass)}
	nodes := a.sums.Solve(pass, a.summarize, (*summary).equal)

	// Emission: walk each function once with its solved held-sets,
	// recording edges and reporting cycles/double-locks.
	for _, n := range nodes {
		a.emit(n)
	}
	return nil
}

// analyzer carries one package pass's context. A nil summary (a
// placeholder, or a function not analyzed yet) counts as acquiring
// nothing.
type analyzer struct {
	pass *analysis.Pass
	st   *state
	sums *callgraph.Summaries[*summary]
}

// held maps lock key -> receiver expression text at acquisition ("" when
// merged paths disagree or the lock came from a callee summary). The
// expression text only powers the same-receiver double-lock check.
type held map[string]string

// problem builds the held-set dataflow problem for one function.
func (a *analyzer) problem(n *callgraph.Node) dataflow.Problem[held] {
	return dataflow.Problem[held]{
		Init:     func() held { return nil },
		Boundary: func() held { return held{} },
		Join: func(x, y held) held {
			if len(x) == 0 {
				return y
			}
			out := make(held, len(x)+len(y))
			for k, v := range x {
				out[k] = v
			}
			for k, v := range y {
				if old, ok := out[k]; ok && old != v {
					out[k] = ""
				} else {
					out[k] = v
				}
			}
			return out
		},
		Equal: func(x, y held) bool {
			if len(x) != len(y) {
				return false
			}
			for k, v := range x {
				if w, ok := y[k]; !ok || w != v {
					return false
				}
			}
			return true
		},
		Transfer: func(node ast.Node, in held) held {
			out := in
			a.walkOps(node, func(op mutexOp, call *ast.CallExpr) {
				out = a.apply(out, op, call)
			})
			return out
		},
	}
}

// apply is the single-operation transfer: returns a new held set (never
// mutates h).
func (a *analyzer) apply(h held, op mutexOp, call *ast.CallExpr) held {
	cp := make(held, len(h)+1)
	for k, v := range h {
		cp[k] = v
	}
	switch op.kind {
	case opLock, opRLock:
		cp[op.key] = op.recvText
	case opUnlock, opRUnlock:
		delete(cp, op.key)
	case opCall:
		for _, e := range a.sums.Graph.Callees(call) {
			if e.Go {
				continue // other goroutine: no ordering with our held set
			}
			sum := a.sums.Get(e.Callee)
			if sum == nil {
				continue
			}
			for _, k := range sum.Releases {
				delete(cp, k)
			}
			for _, k := range sum.Holds {
				if _, ok := cp[k]; !ok {
					cp[k] = "" // held via callee: no receiver text
				}
			}
		}
	}
	return cp
}

// summarize computes one function's summary from its solved dataflow.
func (a *analyzer) summarize(n *callgraph.Node) *summary {
	cfg := a.sums.Graph.CFG(n)
	res := dataflow.Forward(cfg, a.problem(n))

	acq := make(map[string]bool)
	rel := make(map[string]bool)
	for _, blk := range cfg.Blocks {
		for _, node := range blk.Nodes {
			a.walkOps(node, func(op mutexOp, call *ast.CallExpr) {
				switch op.kind {
				case opLock, opRLock:
					acq[op.key] = true
				case opUnlock, opRUnlock:
					rel[op.key] = true
				case opCall:
					for _, e := range a.sums.Graph.Callees(call) {
						if e.Go {
							continue
						}
						if sum := a.sums.Get(e.Callee); sum != nil {
							for _, k := range sum.Acquires {
								acq[k] = true
							}
							for _, k := range sum.Releases {
								rel[k] = true
							}
						}
					}
				}
			})
		}
	}

	// Held at return: the exit in-set, with deferred operations applied
	// last-registered-first.
	holds := res.In[cfg.Exit]
	for i := len(cfg.Defers) - 1; i >= 0; i-- {
		d := cfg.Defers[i]
		holds = a.apply(holds, a.classify(d.Call), d.Call)
		// Deferred unlocks also count as releases the caller observes;
		// deferred callee effects were folded by apply above.
		if op := a.classify(d.Call); op.kind == opUnlock || op.kind == opRUnlock {
			rel[op.key] = true
		} else if op.kind == opLock || op.kind == opRLock {
			acq[op.key] = true
		}
	}
	return &summary{Acquires: sortedKeys(acq), Holds: sortedHeld(holds), Releases: sortedKeys(rel)}
}

// emit replays one function with its solved held-sets, recording
// acquisition edges and reporting.
func (a *analyzer) emit(n *callgraph.Node) {
	cfg := a.sums.Graph.CFG(n)
	res := dataflow.Forward(cfg, a.problem(n))
	name := n.Name()
	for _, blk := range cfg.Blocks {
		h := res.In[blk]
		for _, node := range blk.Nodes {
			a.walkOps(node, func(op mutexOp, call *ast.CallExpr) {
				switch op.kind {
				case opLock, opRLock:
					if prev, already := h[op.key]; already && op.kind == opLock && prev != "" && prev == op.recvText {
						a.pass.Reportf(call.Pos(),
							"mutex %s is locked while already held through the same receiver %s: guaranteed self-deadlock",
							op.key, op.recvText)
					}
					for _, from := range sortedHeld(h) {
						a.addEdge(from, op.key, call.Pos(), name)
					}
				case opCall:
					for _, e := range a.sums.Graph.Callees(call) {
						if e.Go {
							continue
						}
						sum := a.sums.Get(e.Callee)
						if sum == nil {
							continue
						}
						for _, from := range sortedHeld(h) {
							for _, to := range sum.Acquires {
								a.addEdge(from, to, call.Pos(), name)
							}
						}
					}
				}
				h = a.apply(h, op, call)
			})
		}
	}
}

// addEdge records from→to and reports when it closes a new cycle.
func (a *analyzer) addEdge(from, to string, pos token.Pos, fn string) {
	if from == to {
		return // same identity: sibling instances, not an order violation
	}
	if m := a.st.edges[from]; m != nil {
		if _, ok := m[to]; ok {
			return
		}
	} else {
		a.st.edges[from] = make(map[string]edgeSite)
	}
	a.st.edges[from][to] = edgeSite{pos: pos, fn: fn}

	cycle := a.findPath(to, from)
	if cycle == nil {
		return
	}
	full := append([]string{from}, cycle...) // from -> to -> ... -> from
	key := canonicalCycle(full)
	if a.st.reported[key] {
		return
	}
	a.st.reported[key] = true
	back := a.st.edges[cycle[len(cycle)-2]][from] // the edge closing back into from
	a.pass.Reportf(pos,
		"lock order cycle: %s; %s is acquired while holding %s here, but the reverse order exists at %s (in %s)",
		strings.Join(full, " -> "), to, from,
		a.pass.Fset.Position(back.pos), back.fn)
}

// findPath returns the shortest node sequence from -> ... -> target
// (inclusive of both, excluding the leading from) or nil.
func (a *analyzer) findPath(from, target string) []string {
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range sortedEdgeKeys(a.st.edges[cur]) {
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = cur
			if next == target {
				var path []string
				for at := next; at != ""; at = prev[at] {
					path = append([]string{at}, path...)
				}
				return path
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// canonicalCycle rotates the cycle (first == last) to start at its
// smallest element so the same cycle found from different edges dedupes.
func canonicalCycle(cycle []string) string {
	ring := cycle[:len(cycle)-1]
	min := 0
	for i := range ring {
		if ring[i] < ring[min] {
			min = i
		}
	}
	rot := append(append([]string{}, ring[min:]...), ring[:min]...)
	return strings.Join(rot, "->")
}

// ---- operation classification ----

type opKind int

const (
	opCall opKind = iota // ordinary call: apply callee summary
	opLock
	opRLock
	opUnlock
	opRUnlock
)

type mutexOp struct {
	kind     opKind
	key      string
	recvText string
}

// walkOps visits every call in the node, in syntactic order, classifying
// each as a mutex operation or an ordinary call. Nested function literals
// are separate graph nodes; go statements run on another goroutine and
// deferred calls are handled at function exit, so all three are skipped.
func (a *analyzer) walkOps(root ast.Node, visit func(mutexOp, *ast.CallExpr)) {
	ast.Inspect(root, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			visit(a.classify(nd), nd)
		}
		return true
	})
}

// classify decides what one call does to the lock state.
func (a *analyzer) classify(call *ast.CallExpr) mutexOp {
	info := a.pass.TypesInfo
	fn := analysis.Callee(info, call)
	if fn == nil {
		return mutexOp{kind: opCall}
	}
	var kind opKind
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		kind = opLock
	case "(*sync.RWMutex).RLock":
		kind = opRLock
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		kind = opUnlock
	case "(*sync.RWMutex).RUnlock":
		kind = opRUnlock
	default:
		return mutexOp{kind: opCall}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexOp{kind: opCall}
	}
	key := a.lockKey(sel)
	if key == "" {
		return mutexOp{kind: opCall} // unkeyable receiver: ignore the op
	}
	return mutexOp{kind: kind, key: key, recvText: types.ExprString(sel.X)}
}

// lockKey derives the type-based identity of the mutex a selector's method
// call operates on, or "" when no stable identity exists.
func (a *analyzer) lockKey(methodSel *ast.SelectorExpr) string {
	info := a.pass.TypesInfo
	x := ast.Unparen(methodSel.X)

	// Promoted method (t.Lock() with an embedded sync.Mutex): identity is
	// the owner type plus the embedding path.
	if sel, ok := info.Selections[methodSel]; ok && len(sel.Index()) > 1 {
		owner := namedName(sel.Recv())
		if owner == "" {
			return ""
		}
		return owner + fieldPath(sel.Recv(), sel.Index()[:len(sel.Index())-1])
	}

	switch x := x.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			// Field access s.mu (possibly through embedding): owner type +
			// field path.
			owner := namedName(sel.Recv())
			if owner == "" {
				return ""
			}
			return owner + fieldPath(sel.Recv(), sel.Index())
		}
		// Package-qualified var pkg.Mu.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			// Local mutex: key by declaration line, unique enough and
			// stable across runs.
			return fmt.Sprintf("%s.%s@%d", v.Pkg().Path(), v.Name(),
				a.pass.Fset.Position(v.Pos()).Line)
		}
	}
	return ""
}

// namedName returns "pkgpath.TypeName" of t (unwrapping one pointer), ""
// for unnamed types.
func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// fieldPath renders ".a.b" for an index path through t's struct fields.
func fieldPath(t types.Type, index []int) string {
	var sb strings.Builder
	cur := t
	for _, i := range index {
		if p, ok := cur.(*types.Pointer); ok {
			cur = p.Elem()
		}
		st, ok := cur.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return sb.String()
		}
		f := st.Field(i)
		sb.WriteString(".")
		sb.WriteString(f.Name())
		cur = f.Type()
	}
	return sb.String()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedHeld(h held) []string {
	out := make([]string, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedEdgeKeys(m map[string]edgeSite) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
