// Package allocproof proves the hot set allocation-free along every warm
// control-flow path.
//
// TestZeroAllocSteadyState pins the steady-state decision cycle at zero
// allocations per cycle, but a runtime guard only fires for the
// configurations it samples. This analyzer is the compile-time backstop for
// the functions that make up the hot path — core's cycle driver, the whole
// shuffle pass machinery, decision's comparators, attr's key packers,
// regblock's per-cycle methods, and anything annotated //sslint:hotpath (the
// shared hotset package). It walks each hot function's CFG and
// distinguishes paths:
//
//   - warm blocks — reachable from entry AND able to reach the normal
//     return — must be allocation-free (classify.go names the constructs):
//     a conditional alloc behind an unlikely branch is still a steady-state
//     alloc the cycle budget pays for when the branch hits;
//   - doomed blocks — every continuation panics — are cold by definition,
//     so a wiring-error path may format its message
//     (`msg := fmt.Sprintf(...); panic(msg)` is accepted whole, not just
//     the panic's own arguments);
//   - calls from a warm block to a same-package function outside the hot
//     set are followed: if the callee (transitively) reaches an allocation
//     on one of its own warm paths, the call site is a finding. This closes
//     the "hide the make() in a helper" hole that syntactic checking leaves
//     open. Cross-package and interface calls stay the runtime allocation
//     tests' job.
package allocproof

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/hotset"
)

// Analyzer is the allocproof check.
var Analyzer = &analysis.Analyzer{
	Name: "allocproof",
	Doc:  "prove hot-set functions allocation-free on every warm control-flow path, through same-package helpers",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	p := &prover{
		pass:  pass,
		decls: map[*types.Func]*ast.FuncDecl{},
		memo:  map[*types.Func][]site{},
	}
	var hots []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				p.decls[fn] = fd
			}
			if hotset.IsHot(pass.Pkg.Path(), fd) {
				hots = append(hots, fd)
			}
		}
	}
	for _, fd := range hots {
		p.checkHot(fd)
	}
	return nil
}

// site is one allocation discovered on a callee's warm path.
type site struct {
	pos token.Pos
	msg string
}

type prover struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*types.Func][]site
}

// checkHot reports every allocation construct in fd's warm blocks and
// follows warm calls into same-package helpers.
func (p *prover) checkHot(fd *ast.FuncDecl) {
	for _, n := range warmNodes(fd, p.pass.Info) {
		walkAllocs(p.pass, n, p.pass.Report)
		p.checkCalls(n)
	}
}

// warmNodes returns the CFG nodes of fd's warm blocks: reachable from entry
// and able to reach the normal return.
func warmNodes(fd *ast.FuncDecl, info *types.Info) []ast.Node {
	g := analysis.NewCFG(fd, info)
	reach := g.ReachableFromEntry()
	warm := g.CanReachExit()
	var nodes []ast.Node
	for _, blk := range g.Blocks {
		if !reach[blk] || !warm[blk] {
			continue
		}
		nodes = append(nodes, blk.Nodes...)
	}
	return nodes
}

// checkCalls flags warm calls whose same-package callee reaches an
// allocation.
func (p *prover) checkCalls(n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(p.pass.Info, call)
		if fn == nil || fn.Pkg() != p.pass.Pkg {
			return true
		}
		fd, hasDecl := p.decls[fn]
		if !hasDecl {
			return true // interface dispatch or missing body
		}
		if hotset.IsHot(p.pass.Pkg.Path(), fd) {
			return true // hot callees are proven on their own
		}
		if sites := p.allocSites(fn, fd); len(sites) > 0 {
			first := sites[0]
			p.pass.Reportf(call.Pos(), "call to %s on the hot path reaches an allocation at %s: %s",
				fn.Name(), p.pass.Fset.Position(first.pos), first.msg)
		}
		return true
	})
}

// allocSites proves one non-hot callee, memoized. A function currently on
// the proof stack reports no sites of its own — recursion contributes
// nothing new to the sites its first frame finds.
func (p *prover) allocSites(fn *types.Func, fd *ast.FuncDecl) []site {
	if sites, seen := p.memo[fn]; seen {
		return sites
	}
	p.memo[fn] = nil // in-progress marker for recursive call chains
	var sites []site
	for _, n := range warmNodes(fd, p.pass.Info) {
		walkAllocs(p.pass, n, func(pos token.Pos, msg string) {
			sites = append(sites, site{pos, msg})
		})
		ast.Inspect(n, func(x ast.Node) bool {
			if _, isLit := x.(*ast.FuncLit); isLit {
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			inner := callee(p.pass.Info, call)
			if inner == nil || inner.Pkg() != p.pass.Pkg {
				return true
			}
			innerDecl, hasDecl := p.decls[inner]
			if !hasDecl || hotset.IsHot(p.pass.Pkg.Path(), innerDecl) {
				return true
			}
			if sub := p.allocSites(inner, innerDecl); len(sub) > 0 {
				sites = append(sites, site{call.Pos(), "call to " + inner.Name() + " reaches " + sub[0].msg})
			}
			return true
		})
	}
	p.memo[fn] = sites
	return sites
}

// callee resolves a call to its static *types.Func, if any.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
