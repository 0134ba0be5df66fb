package analysis

// This file is the generic forward-dataflow half of the flow-sensitive
// layer: a worklist fixpoint over a Graph with a pluggable fact lattice.
// Clients describe their lattice with FlowOps — how to seed the entry fact,
// transfer a fact across one node, refine it along a conditional edge, and
// join facts where paths meet — and Forward returns the fixpoint in-fact of
// every reachable block. Union lattices (conserve's obligation sets) and
// intersection lattices (spsc's must-have-loaded sets) both fit: the
// first fact to arrive at a block seeds it, and Join folds later arrivals.
//
// The Edge hook is the path-condition-lite piece: an edge taken only when
// `ok` is false can kill the facts an `ok`-guarded operation created, and
// CondVar is the helper that resolves an edge's condition to that boolean
// variable identity through negation and parentheses.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FlowOps describes one forward-dataflow problem over fact type F.
type FlowOps[F any] struct {
	// Entry produces the fact entering the function.
	Entry func() F
	// Clone deep-copies a fact so transfer on one path cannot alias
	// another's state.
	Clone func(F) F
	// Transfer folds one block node (simple statement or condition
	// expression) into the fact.
	Transfer func(n ast.Node, f F) F
	// Edge, when non-nil, refines the fact along one control edge; ok=false
	// drops the edge as infeasible. The fact passed in is already a clone.
	Edge func(e *Edge, f F) (F, bool)
	// Join merges src into dst, reporting whether dst changed. It is only
	// called once dst exists; the first fact to reach a block seeds it.
	Join func(dst, src F) (F, bool)
}

// Forward runs the fixpoint and returns each reachable block's in-fact.
// Blocks unreachable from Entry have no entry in the result.
func Forward[F any](g *Graph, ops FlowOps[F]) map[*Block]F {
	in := map[*Block]F{g.Entry: ops.Entry()}
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}

	// The fact domains are finite and Join is monotone, so the fixpoint
	// terminates; the step cap is a belt-and-braces guard against a
	// misbehaving client lattice taking the linter down with it.
	maxSteps := (len(g.Blocks) + 1) * 256
	for steps := 0; len(work) > 0 && steps < maxSteps; steps++ {
		blk := work[0]
		work = work[1:]
		queued[blk] = false

		out := ops.Clone(in[blk])
		for _, n := range blk.Nodes {
			out = ops.Transfer(n, out)
		}
		for _, e := range blk.Succs {
			ef := ops.Clone(out)
			if ops.Edge != nil {
				var ok bool
				if ef, ok = ops.Edge(e, ef); !ok {
					continue
				}
			}
			cur, seen := in[e.To]
			changed := true
			if seen {
				in[e.To], changed = ops.Join(cur, ef)
			} else {
				in[e.To] = ef
			}
			if changed && !queued[e.To] {
				work = append(work, e.To)
				queued[e.To] = true
			}
		}
	}
	return in
}

// CondVar resolves a branch condition to the boolean variable it tests,
// through parentheses and negation: for an edge taken when Cond == branch,
// it returns the variable and the value the variable must have on that
// edge. ok is false when the condition is anything richer than a (possibly
// negated) plain boolean variable.
func CondVar(info *types.Info, cond ast.Expr, branch bool) (v *types.Var, sense bool, ok bool) {
	for {
		switch x := cond.(type) {
		case *ast.ParenExpr:
			cond = x.X
		case *ast.UnaryExpr:
			if x.Op != token.NOT {
				return nil, false, false
			}
			branch = !branch
			cond = x.X
		case *ast.Ident:
			if info == nil {
				return nil, false, false
			}
			if vv, isVar := info.Uses[x].(*types.Var); isVar {
				return vv, branch, true
			}
			return nil, false, false
		default:
			return nil, false, false
		}
	}
}

// CondCall resolves a branch condition to the method/function call it tests,
// through parentheses and negation — `if r.Push(v) { ... }` and
// `for !r.Push(v) { ... }` both resolve to the Push call, with sense
// reporting the call's result on the edge. Richer conditions return ok
// false.
func CondCall(cond ast.Expr, branch bool) (call *ast.CallExpr, sense bool, ok bool) {
	for {
		switch x := cond.(type) {
		case *ast.ParenExpr:
			cond = x.X
		case *ast.UnaryExpr:
			if x.Op != token.NOT {
				return nil, false, false
			}
			branch = !branch
			cond = x.X
		case *ast.CallExpr:
			return x, branch, true
		default:
			return nil, false, false
		}
	}
}
