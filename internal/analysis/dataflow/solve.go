package dataflow

import "go/ast"

// Problem describes one dataflow analysis over facts of type F. The four
// functions define the lattice and its transfer; the solver owns iteration
// order and the fixpoint test.
//
// Init is the optimistic assumption a block starts from before any
// iteration — it must be the identity of Join. For a may-analysis
// (union join: "reaches along some path") that is the empty fact; for a
// must-analysis (intersection join: "holds along every path") it is the
// top element, typically "everything holds". Getting Init wrong is the
// classic must-analysis bug: seeding loops with the empty fact makes the
// intersection at the loop head empty forever.
type Problem[F any] struct {
	// Init returns the per-block starting fact: the identity of Join.
	Init func() F
	// Boundary returns the fact flowing into the entry block.
	Boundary func() F
	// Join merges facts where control-flow paths meet. It must not mutate
	// its arguments.
	Join func(a, b F) F
	// Equal is the fixpoint test.
	Equal func(a, b F) bool
	// Transfer applies one node's effect to the incoming fact and returns
	// the outgoing fact. It must not mutate in.
	Transfer func(n ast.Node, in F) F
}

// Result holds the fixpoint solution: the fact at each block's entry (In)
// and exit (Out).
type Result[F any] struct {
	In, Out map[*Block]F
}

// maxVisitsPerBlock bounds the solver against a lattice with an infinite
// ascending chain (a Problem bug): after this many re-visits of a single
// block the solver stops refining and returns the current approximation,
// which for a monotone problem is still sound, just less precise.
const maxVisitsPerBlock = 256

// Forward solves the problem in execution order: In[b] joins the Out of
// b's predecessors, and Transfer runs over b's nodes first to last.
func Forward[F any](g *CFG, p Problem[F]) Result[F] {
	res := Result[F]{In: make(map[*Block]F, len(g.Blocks)), Out: make(map[*Block]F, len(g.Blocks))}
	for _, blk := range g.Blocks {
		res.Out[blk] = p.Init()
	}
	// Worklist seeded with every block in index order: deterministic, and
	// unreachable blocks still get a (fully optimistic) solution.
	work := make([]*Block, len(g.Blocks))
	copy(work, g.Blocks)
	queued := make([]bool, len(g.Blocks))
	for i := range queued {
		queued[i] = true
	}
	visits := make([]int, len(g.Blocks))
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk.Index] = false
		if visits[blk.Index] >= maxVisitsPerBlock {
			continue
		}
		visits[blk.Index]++

		in := p.Init()
		if blk == g.Entry {
			in = p.Boundary()
		}
		for _, pred := range blk.Preds {
			in = p.Join(in, res.Out[pred])
		}
		res.In[blk] = in

		out := in
		for _, n := range blk.Nodes {
			out = p.Transfer(n, out)
		}
		if p.Equal(out, res.Out[blk]) {
			continue
		}
		res.Out[blk] = out
		for _, next := range blk.Succs {
			if !queued[next.Index] {
				queued[next.Index] = true
				work = append(work, next)
			}
		}
	}
	return res
}
