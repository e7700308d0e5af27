// Package dataflow is the per-function core of the interprocedural
// analysis layer: a control-flow graph derived from AST statements plus a
// forward worklist solver over a caller-supplied lattice.
//
// The CFG is statement-granular. Each basic block holds a run of ast.Node
// values — simple statements, plus the condition / tag / range expressions
// of the control statements that end the block — and edges follow Go's
// structured control flow: if/else, for and range loops, expression and
// type switches (including fallthrough), select, labeled break/continue,
// goto, and return. Analyzers walk inside each node themselves; the graph
// only fixes the order and branching between them.
//
// Deliberate approximations, shared by every analyzer built on top (see
// DESIGN.md §13 for the soundness discussion):
//
//   - panics and runtime.Goexit do not end blocks; a call that cannot
//     return still appears to fall through.
//   - defer statements appear as ordinary nodes where they execute, and
//     are additionally collected in CFG.Defers so an exit-sensitive
//     analysis (lockorder's held-set) can model their run-at-return
//     semantics without re-walking the function.
//   - select is a nondeterministic branch; an empty select (which blocks
//     forever) still gets an edge onward so the graph stays connected.
package dataflow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal run of nodes with a single entry.
type Block struct {
	// Index is the block's position in CFG.Blocks, stable across runs so
	// diagnostics derived from block order are deterministic.
	Index int
	// Nodes are the statements and control expressions executed in order.
	Nodes []ast.Node
	// Succs are the possible successors in source order (then before else,
	// case clauses in declaration order).
	Succs []*Block
	// Preds are the predecessors, maintained by the builder.
	Preds []*Block
}

// CFG is one function body's control-flow graph.
type CFG struct {
	// Blocks holds every block; Entry has index 0, Exit index 1.
	// Unreachable blocks (e.g. code after return) are retained so
	// analyzers still see their nodes.
	Blocks []*Block
	// Entry is the function's entry block; Exit is the single synthetic
	// exit block every return and final fallthrough reaches.
	Entry, Exit *Block
	// Defers lists every defer statement in the body, in syntactic order —
	// the run-at-return set for exit-sensitive analyses.
	Defers []*ast.DeferStmt
}

// labelTarget holds the three places a label can send control.
type labelTarget struct {
	entry      *Block // the labeled statement's first block (goto target)
	breakTo    *Block // block after the labeled statement (break target)
	continueTo *Block // loop post/head, set only when the label is on a loop
}

type pendingGoto struct {
	from  *Block
	label string
}

// builder carries the construction state.
type builder struct {
	cfg *CFG
	// cur is the block new nodes append to; nil after a terminating
	// statement (return/branch), in which case a fresh unreachable block
	// is started on the next node.
	cur *Block
	// breaks / continues are the targets of an unlabeled break/continue,
	// innermost last.
	breaks, continues []*Block
	// fallthroughTo is the next case clause's block inside a switch body.
	fallthroughTo *Block
	// labels maps every label seen so far to its targets. Labels are
	// registered before their statement is visited, so break/continue to
	// an enclosing label always resolves immediately; only goto can be a
	// forward reference.
	labels map[string]*labelTarget
	// labelHint is the pending label for the next loop statement, which
	// claims it as its continue target.
	labelHint *labelTarget
	// gotos are forward gotos to labels not yet seen, patched at the end.
	gotos []pendingGoto
}

// New builds the CFG of one function body. A nil body yields the bare
// entry→exit graph.
func New(body *ast.BlockStmt) *CFG {
	b := &builder{cfg: &CFG{}, labels: make(map[string]*labelTarget)}
	b.cfg.Entry = b.newBlock() // index 0
	b.cfg.Exit = b.newBlock()  // index 1
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.cfg.Exit)
	// Patch forward gotos now that every label is known. Unknown labels
	// (malformed code the type checker would reject) fall to the exit.
	for _, g := range b.gotos {
		if t := b.labels[g.label]; t != nil {
			b.edge(g.from, t.entry)
		} else {
			b.edge(g.from, b.cfg.Exit)
		}
	}
	return b.cfg
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to target (if the current block
// is live) and leaves no current block.
func (b *builder) jump(target *Block) {
	if b.cur != nil {
		b.edge(b.cur, target)
	}
	b.cur = nil
}

func (b *builder) startBlock(target *Block) { b.cur = target }

// add appends one node to the current block, starting a fresh (unreachable)
// block if control already terminated.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// live returns the current block, materializing one if control terminated.
func (b *builder) live() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

// takeLabelHint consumes the pending loop label, if any.
func (b *builder) takeLabelHint() *labelTarget {
	t := b.labelHint
	b.labelHint = nil
	return t
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		join := b.newBlock()
		thenB := b.newBlock()
		b.edge(cond, thenB)
		b.startBlock(thenB)
		b.stmt(s.Body)
		b.jump(join)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cond, elseB)
			b.startBlock(elseB)
			b.stmt(s.Else)
			b.jump(join)
		} else {
			b.edge(cond, join)
		}
		b.startBlock(join)

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		hint := b.takeLabelHint()
		head := b.newBlock()
		join := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		if hint != nil {
			hint.continueTo = post
		}
		b.jump(head)
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(b.cur, join)
		}
		// A condition-less for only exits via break.
		body := b.newBlock()
		b.edge(b.live(), body)
		b.startBlock(body)
		b.pushLoop(join, post)
		b.stmt(s.Body)
		b.popLoop()
		b.jump(post)
		if s.Post != nil {
			b.startBlock(post)
			b.stmt(s.Post)
			b.jump(head)
		}
		b.startBlock(join)

	case *ast.RangeStmt:
		hint := b.takeLabelHint()
		head := b.newBlock()
		join := b.newBlock()
		if hint != nil {
			hint.continueTo = head
		}
		b.jump(head)
		b.startBlock(head)
		b.add(s) // the range statement itself: per-iteration bind + test
		b.edge(b.cur, join)
		body := b.newBlock()
		b.edge(b.cur, body)
		b.startBlock(body)
		b.pushLoop(join, head)
		b.stmt(s.Body)
		b.popLoop()
		b.jump(head)
		b.startBlock(join)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		// Case expressions are evaluated during dispatch: keep them in the
		// head block so fallthrough edges skip them, as execution does.
		for _, cl := range s.Body.List {
			for _, e := range cl.(*ast.CaseClause).List {
				b.add(e)
			}
		}
		b.switchBody(s.Body)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body)

	case *ast.SelectStmt:
		head := b.live()
		join := b.newBlock()
		if len(s.Body.List) == 0 {
			// select{} blocks forever; keep the graph connected anyway.
			b.jump(join)
		} else {
			for _, cl := range s.Body.List {
				comm := cl.(*ast.CommClause)
				cb := b.newBlock()
				b.edge(head, cb)
				b.startBlock(cb)
				if comm.Comm != nil {
					b.stmt(comm.Comm)
				}
				b.breaks = append(b.breaks, join)
				b.stmtList(comm.Body)
				b.breaks = b.breaks[:len(b.breaks)-1]
				b.jump(join)
			}
			b.cur = nil
		}
		b.startBlock(join)

	case *ast.LabeledStmt:
		// Land the label on a fresh block so goto can target it, and
		// pre-create the break target so `break L` resolves while the
		// labeled statement is still being built.
		entry := b.newBlock()
		b.jump(entry)
		b.startBlock(entry)
		t := &labelTarget{entry: entry, breakTo: b.newBlock()}
		b.labels[s.Label.Name] = t
		b.labelHint = t
		b.stmt(s.Stmt)
		b.labelHint = nil
		b.jump(t.breakTo)
		b.startBlock(t.breakTo)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	case *ast.EmptyStmt:
		// nothing

	default:
		// Simple statements: assignment, expression, send, inc/dec, decl, go.
		b.add(s)
	}
}

// switchBody wires the clauses of an expression or type switch: every
// clause is a successor of the head block, fallthrough chains to the next
// clause's body, and a missing default adds a head→join edge.
func (b *builder) switchBody(body *ast.BlockStmt) {
	head := b.live()
	join := b.newBlock()
	var clauseBlocks []*Block
	hasDefault := false
	for _, cl := range body.List {
		cb := b.newBlock()
		clauseBlocks = append(clauseBlocks, cb)
		b.edge(head, cb)
		if cl.(*ast.CaseClause).List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, join)
	}
	for i, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		b.startBlock(clauseBlocks[i])
		saveFt := b.fallthroughTo
		b.fallthroughTo = nil
		if i+1 < len(clauseBlocks) {
			b.fallthroughTo = clauseBlocks[i+1]
		}
		b.breaks = append(b.breaks, join)
		b.stmtList(cc.Body)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.fallthroughTo = saveFt
		b.jump(join)
	}
	b.startBlock(join)
}

func (b *builder) pushLoop(breakTo, continueTo *Block) {
	b.breaks = append(b.breaks, breakTo)
	b.continues = append(b.continues, continueTo)
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// branch handles break/continue/goto/fallthrough. Labels always resolve
// immediately for break/continue (a label encloses its branch statement,
// so it was registered on the way down); only goto can point forward.
func (b *builder) branch(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if t := b.labels[s.Label.Name]; t != nil && t.breakTo != nil {
				b.jump(t.breakTo)
				return
			}
		} else if n := len(b.breaks); n > 0 {
			b.jump(b.breaks[n-1])
			return
		}
	case token.CONTINUE:
		if s.Label != nil {
			if t := b.labels[s.Label.Name]; t != nil && t.continueTo != nil {
				b.jump(t.continueTo)
				return
			}
		} else if n := len(b.continues); n > 0 {
			b.jump(b.continues[n-1])
			return
		}
	case token.GOTO:
		if s.Label != nil {
			if t := b.labels[s.Label.Name]; t != nil {
				b.jump(t.entry)
				return
			}
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			b.cur = nil
			return
		}
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.jump(b.fallthroughTo)
			return
		}
	}
	// Malformed (the type checker would reject it): terminate the block.
	b.cur = nil
}
