package analysis

// This file builds per-function control-flow graphs over go/ast — the
// flow-sensitive substrate the sslint suite's proving analyzers (allocproof,
// conserve, spsc) run on. The graph is statement-granular: every basic
// block holds the simple statements and branch/loop conditions that execute
// straight-line within it, in evaluation order, and edges carry the branch
// condition they are taken under (Cond/Branch), which is what lets a
// dataflow client refine facts per path — the "path-condition-lite" API.
//
// Two sinks are distinguished: Exit collects every return and the implicit
// fall-off-the-end return, while Panic collects blocks that end in a call to
// the panic builtin. A block from which Exit is unreachable is *doomed* —
// every continuation panics — and analyses that prove steady-state
// properties (allocation freedom, counter conservation) treat doomed blocks
// as cold: a wiring-error panic path is allowed to format its message.
//
// Function literals are opaque: the builder never descends into a FuncLit
// body, because that body belongs to a different function's flow.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BlockKind distinguishes the synthetic entry/exit/panic blocks from
// ordinary body blocks.
type BlockKind uint8

const (
	// BlockBody is an ordinary straight-line block.
	BlockBody BlockKind = iota
	// BlockEntry is the function's unique entry (no statements).
	BlockEntry
	// BlockExit is the unique normal-return sink.
	BlockExit
	// BlockPanic is the unique panicking sink.
	BlockPanic
)

// Block is one basic block: simple statements and condition expressions in
// evaluation order, plus the edges in and out.
type Block struct {
	Index int
	Kind  BlockKind
	// Nodes holds the block's statements and standalone condition/tag
	// expressions in execution order. Compound statements never appear —
	// only their atomic parts do — so a client walking each node's subtree
	// visits every expression of the function exactly once.
	Nodes []ast.Node
	Succs []*Edge
	Preds []*Edge
}

// Edge is one control-flow edge. When Cond is non-nil the edge is taken
// exactly when Cond evaluates to Branch; unconditional edges have Cond nil.
type Edge struct {
	From, To *Block
	Cond     ast.Expr
	Branch   bool
}

// Graph is one function's control-flow graph.
type Graph struct {
	Fn     *ast.FuncDecl
	Entry  *Block
	Exit   *Block
	Panic  *Block
	Blocks []*Block
}

// NewCFG builds the control-flow graph of fn's body. info resolves the
// panic builtin (nil degrades to matching the identifier name). fn must
// have a body.
func NewCFG(fn *ast.FuncDecl, info *types.Info) *Graph {
	g := &Graph{Fn: fn}
	b := &cfgBuilder{g: g, info: info, labels: map[string]*Block{}}
	g.Entry = b.newBlock(BlockEntry)
	g.Exit = b.newBlock(BlockExit)
	g.Panic = b.newBlock(BlockPanic)
	first := b.newBlock(BlockBody)
	b.link(g.Entry, first, nil, false)
	b.cur = first
	b.stmt(fn.Body)
	b.link(b.cur, g.Exit, nil, false) // implicit return
	for _, gt := range b.gotos {
		if target, ok := b.labels[gt.label]; ok {
			b.link(gt.from, target, nil, false)
		}
	}
	return g
}

// ReachableFromEntry returns the blocks reachable from Entry — statements in
// any other block are dead code.
func (g *Graph) ReachableFromEntry() map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, e := range b.Succs {
			walk(e.To)
		}
	}
	walk(g.Entry)
	return seen
}

// CanReachExit returns the blocks from which the normal-return sink is
// reachable. Blocks outside this set are doomed — every continuation panics
// — and steady-state analyses treat them as cold.
func (g *Graph) CanReachExit() map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, e := range b.Preds {
			walk(e.From)
		}
	}
	walk(g.Exit)
	return seen
}

// jumpTarget pairs a jump destination with the loop/switch label it answers
// to ("" for unlabeled).
type jumpTarget struct {
	label string
	block *Block
}

type gotoRef struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	g    *Graph
	info *types.Info
	cur  *Block

	breaks       []jumpTarget
	continues    []jumpTarget
	fallthroughs []*Block
	labels       map[string]*Block
	gotos        []gotoRef
	// pendingLabel is the label of the LabeledStmt being built, consumed by
	// the next loop/switch/select so labeled break/continue resolve.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(kind BlockKind) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// detach starts a fresh unreachable block — the continuation after a jump.
func (b *cfgBuilder) detach() {
	b.cur = b.newBlock(BlockBody)
}

func (b *cfgBuilder) link(from, to *Block, cond ast.Expr, branch bool) {
	e := &Edge{From: from, To: to, Cond: cond, Branch: branch}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, t := range s.List {
			b.stmt(t)
		}
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())
	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, b.takeLabel())
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Body, b.takeLabel())
	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())
	case *ast.LabeledStmt:
		lb := b.newBlock(BlockBody)
		b.link(b.cur, lb, nil, false)
		b.cur = lb
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.link(b.cur, b.g.Exit, nil, false)
		b.detach()
	case *ast.ExprStmt:
		b.add(s)
		if b.isPanic(s.X) {
			b.link(b.cur, b.g.Panic, nil, false)
			b.detach()
		}
	default:
		// Simple statements: assignments, inc/dec, sends, declarations,
		// defers, go statements, empty statements.
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	then := b.newBlock(BlockBody)
	b.link(cond, then, s.Cond, true)
	b.cur = then
	b.stmt(s.Body)
	afterThen := b.cur
	join := b.newBlock(BlockBody)
	if s.Else != nil {
		els := b.newBlock(BlockBody)
		b.link(cond, els, s.Cond, false)
		b.cur = els
		b.stmt(s.Else)
		b.link(b.cur, join, nil, false)
	} else {
		b.link(cond, join, s.Cond, false)
	}
	b.link(afterThen, join, nil, false)
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock(BlockBody)
	b.link(b.cur, head, nil, false)
	body := b.newBlock(BlockBody)
	exit := b.newBlock(BlockBody)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		b.link(head, body, s.Cond, true)
		b.link(head, exit, s.Cond, false)
	} else {
		b.link(head, body, nil, false)
	}
	cont := head
	if s.Post != nil {
		post := b.newBlock(BlockBody)
		b.cur = post
		b.add(s.Post)
		b.link(post, head, nil, false)
		cont = post
	}
	b.breaks = append(b.breaks, jumpTarget{label, exit})
	b.continues = append(b.continues, jumpTarget{label, cont})
	b.cur = body
	b.stmt(s.Body)
	b.link(b.cur, cont, nil, false)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = exit
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X)
	head := b.newBlock(BlockBody)
	b.link(b.cur, head, nil, false)
	body := b.newBlock(BlockBody)
	exit := b.newBlock(BlockBody)
	b.link(head, body, nil, false)
	b.link(head, exit, nil, false)
	b.breaks = append(b.breaks, jumpTarget{label, exit})
	b.continues = append(b.continues, jumpTarget{label, head})
	b.cur = body
	b.stmt(s.Body)
	b.link(b.cur, head, nil, false)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = exit
}

// switchStmt covers expression and type switches (tag nil for the latter;
// a type switch's assign statement is passed through init by the caller).
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label string) {
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	cond := b.cur
	exit := b.newBlock(BlockBody)
	b.breaks = append(b.breaks, jumpTarget{label, exit})

	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock(BlockBody)
	}
	hasDefault := false
	for i, cc := range clauses {
		if cc.List == nil {
			hasDefault = true
		}
		b.link(cond, bodies[i], nil, false)
		b.cur = bodies[i]
		for _, e := range cc.List {
			// Guard expressions count as executed at the case's head. Type
			// switches carry type expressions here; they evaluate nothing.
			if !isTypeExpr(b.info, e) {
				b.add(e)
			}
		}
		next := exit
		if i+1 < len(bodies) {
			next = bodies[i+1]
		}
		b.fallthroughs = append(b.fallthroughs, next)
		for _, t := range cc.Body {
			b.stmt(t)
		}
		b.fallthroughs = b.fallthroughs[:len(b.fallthroughs)-1]
		b.link(b.cur, exit, nil, false)
	}
	if !hasDefault {
		b.link(cond, exit, nil, false)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = exit
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	cond := b.cur
	exit := b.newBlock(BlockBody)
	b.breaks = append(b.breaks, jumpTarget{label, exit})
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		cb := b.newBlock(BlockBody)
		b.link(cond, cb, nil, false)
		b.cur = cb
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		for _, t := range cc.Body {
			b.stmt(t)
		}
		b.link(b.cur, exit, nil, false)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = exit
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	find := func(stack []jumpTarget) *Block {
		if s.Label == nil {
			if len(stack) > 0 {
				return stack[len(stack)-1].block
			}
			return nil
		}
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].label == s.Label.Name {
				return stack[i].block
			}
		}
		return nil
	}
	switch s.Tok {
	case token.BREAK:
		if t := find(b.breaks); t != nil {
			b.link(b.cur, t, nil, false)
		}
		b.detach()
	case token.CONTINUE:
		if t := find(b.continues); t != nil {
			b.link(b.cur, t, nil, false)
		}
		b.detach()
	case token.GOTO:
		if s.Label != nil {
			b.gotos = append(b.gotos, gotoRef{b.cur, s.Label.Name})
		}
		b.detach()
	case token.FALLTHROUGH:
		if n := len(b.fallthroughs); n > 0 {
			b.link(b.cur, b.fallthroughs[n-1], nil, false)
		}
		b.detach()
	}
}

// isPanic reports whether e is a call to the panic builtin.
func (b *cfgBuilder) isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if b.info == nil {
		return true
	}
	_, isBuiltin := b.info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isTypeExpr reports whether e denotes a type (a type-switch case guard).
func isTypeExpr(info *types.Info, e ast.Expr) bool {
	if info == nil {
		return false
	}
	tv, ok := info.Types[e]
	return ok && tv.IsType()
}
