// Package spsc guards the SPSC rings' lock-free head/tail indices.
//
// The endsystem's rings (internal/ringbuf) are single-producer/
// single-consumer queues whose head/tail indices are shared between two
// spinning goroutines with no lock — correctness rests entirely on every
// access being an atomic load/store with the right ordering, performed by
// the ring's own methods (Len's load ordering once raced exactly this way).
// The analyzer enforces the convention over one guarded-field set:
//
//   - a guarded field must be declared with a sync/atomic type
//     (atomic.Uint64 and friends), never a bare integer;
//   - every mention of a guarded field must be an immediate atomic method
//     call (r.head.Load(), r.tail.Store(...)) — copying the value, taking
//     its address, or naming it in a composite literal is a finding;
//   - the mention must occur inside a method of the owning struct — helper
//     functions and other types reaching into the indices cannot uphold
//     the pairing contract;
//   - inside those methods, a Store (or Swap) to a guarded field must be
//     dominated by a Load of that same field on every path that reaches
//     it. A producer that publishes a tail it never observed, or that loads
//     only inside one branch, is overwriting an index the consumer may have
//     advanced past.
//
// The dominance proof is a must-analysis over the method's CFG: the fact at
// a point is the set of guarded fields loaded on *all* paths into it
// (intersection at joins), and every Store/Swap checks membership.
// CompareAndSwap and Add are read-modify-write and carry their own
// observation; Load seeds the fact.
//
// Guarded fields are the built-in ringbuf.Ring head/tail plus — within the
// defining package — any struct field annotated //sslint:spsc.
package spsc

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the spsc check.
var Analyzer = &analysis.Analyzer{
	Name: "spsc",
	Doc:  "require atomic, method-confined SPSC head/tail access, every store dominated by a load of the same field",
	Run:  run,
}

// builtinFields names the guarded fields per package path and struct name.
var builtinFields = map[string]map[string][]string{
	"repro/internal/ringbuf": {"Ring": {"head", "tail"}},
}

// guarded maps a field object (generic origin) to its owning type.
type guarded map[*types.Var]*types.TypeName

func run(pass *analysis.Pass) error {
	fields := guardedFields(pass)
	if len(fields) == 0 {
		return nil
	}
	owners := map[*types.TypeName]bool{}
	// Declaration check: guarded fields must be sync/atomic types.
	for fv, owner := range fields {
		owners[owner] = true
		if !isAtomicType(fv.Type()) {
			pass.Reportf(fv.Pos(), "SPSC pointer field %s.%s must be a sync/atomic type, not %s: plain loads and stores race between producer and consumer",
				owner.Name(), fv.Name(), fv.Type())
		}
	}
	for _, f := range pass.Files {
		checkFile(pass, f, fields)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && owners[receiverType(pass, fd)] {
				checkStores(pass, fd, fields)
			}
		}
	}
	return nil
}

// guardedFields resolves the guarded field set for the package: built-ins
// plus //sslint:spsc-annotated struct fields, keyed by field object (generic
// origin) with the owning type as value.
func guardedFields(pass *analysis.Pass) guarded {
	fields := guarded{}
	add := func(owner *types.TypeName, names ...string) {
		st, ok := owner.Type().Underlying().(*types.Struct)
		if !ok {
			return
		}
		want := map[string]bool{}
		for _, n := range names {
			want[n] = true
		}
		for i := 0; i < st.NumFields(); i++ {
			if fv := st.Field(i); want[fv.Name()] {
				fields[fv.Origin()] = owner
			}
		}
	}
	for owner, names := range builtinFields[pass.Pkg.Path()] {
		if tn, ok := pass.Pkg.Scope().Lookup(owner).(*types.TypeName); ok {
			add(tn, names...)
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				owner, _ := pass.Info.Defs[ts.Name].(*types.TypeName)
				if owner == nil {
					continue
				}
				for _, fld := range st.Fields.List {
					if !analysis.CommentHasMarker([]*ast.CommentGroup{fld.Doc, fld.Comment}, "spsc") {
						continue
					}
					for _, name := range fld.Names {
						add(owner, name.Name)
					}
				}
			}
		}
	}
	return fields
}

// isAtomicType reports whether t is a named type from sync/atomic.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// checkFile flags every non-atomic or non-method-confined mention of a
// guarded field.
func checkFile(pass *analysis.Pass, f *ast.File, fields guarded) {
	analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fv, ok := pass.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		owner, isGuarded := fields[fv.Origin()]
		if !isGuarded {
			return true
		}

		if fd := enclosingFuncDecl(stack); fd == nil || receiverType(pass, fd) != owner {
			pass.Reportf(id.Pos(), "%s.%s accessed outside %s's own methods: the SPSC contract confines head/tail to the owning ring",
				owner.Name(), fv.Name(), owner.Name())
			return true
		}

		// The mention must be r.<field>.<AtomicMethod>(...): stack ends
		// ... CallExpr > SelectorExpr(method) > SelectorExpr(field) > id.
		if len(stack) >= 3 {
			fieldSel, ok1 := stack[len(stack)-1].(*ast.SelectorExpr)
			methodSel, ok2 := stack[len(stack)-2].(*ast.SelectorExpr)
			call, ok3 := stack[len(stack)-3].(*ast.CallExpr)
			if ok1 && ok2 && ok3 && fieldSel.Sel == id && methodSel.X == fieldSel && call.Fun == methodSel {
				return true // r.head.Load() and friends
			}
		}
		pass.Reportf(id.Pos(), "non-atomic use of %s.%s: access it only through its sync/atomic methods (Load/Store/...)",
			owner.Name(), fv.Name())
		return true
	})
}

// enclosingFuncDecl returns the innermost FuncDecl on the stack.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// receiverType returns the base type fd is a method on, unwrapping pointer
// and generic receivers, or nil for a plain function.
func receiverType(pass *analysis.Pass, fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // Ring[T]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			tn, _ := pass.Info.Uses[x].(*types.TypeName)
			return tn
		default:
			return nil
		}
	}
}

// loaded is the must-fact: guarded fields observed on every path here.
type loaded map[*types.Var]bool

// checkStores flags each Store/Swap in fd that is not dominated by a Load
// of the same field on all paths.
func checkStores(pass *analysis.Pass, fd *ast.FuncDecl, fields guarded) {
	g := analysis.NewCFG(fd, pass.Info)
	ops := analysis.FlowOps[loaded]{
		Entry: func() loaded { return loaded{} },
		Clone: func(f loaded) loaded {
			c := make(loaded, len(f))
			for k, v := range f {
				c[k] = v
			}
			return c
		},
		Transfer: func(n ast.Node, f loaded) loaded {
			replay(pass, n, fields, f, nil)
			return f
		},
		Join: func(dst, src loaded) (loaded, bool) {
			changed := false
			for k := range dst {
				if !src[k] {
					delete(dst, k)
					changed = true
				}
			}
			return dst, changed
		},
	}
	in := analysis.Forward(g, ops)

	// Reporting pass: replay each reachable block's in-fact through its
	// nodes in source order, flagging undominated stores as they appear.
	for _, blk := range g.Blocks {
		f, reachable := in[blk]
		if !reachable {
			continue
		}
		cur := ops.Clone(f)
		for _, n := range blk.Nodes {
			replay(pass, n, fields, cur, func(call *ast.CallExpr, fv *types.Var, method string) {
				pass.Reportf(call.Pos(), "%s.%s.%s() is not dominated by %s.Load() on all paths: the index being overwritten was never observed",
					fields[fv].Name(), fv.Name(), method, fv.Name())
			})
		}
	}
}

// replay folds one block node into the loaded-set, calling bad for each
// Store/Swap whose field is not yet loaded. Call arguments are processed
// before the call itself — `tail.Store(tail.Load()+1)` observes before it
// publishes — and function literals belong to another flow.
func replay(pass *analysis.Pass, n ast.Node, fields guarded, f loaded, bad func(*ast.CallExpr, *types.Var, string)) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fv, method := guardedCall(pass, call, fields)
		if fv == nil {
			return true
		}
		for _, a := range call.Args {
			replay(pass, a, fields, f, bad)
		}
		switch method {
		case "Load":
			f[fv] = true
		case "Store", "Swap":
			if !f[fv] && bad != nil {
				bad(call, fv, method)
			}
		}
		return false // args already replayed
	})
}

// guardedCall matches r.<field>.<Method>(...) where field is guarded,
// returning the field's origin object and the atomic method name.
func guardedCall(pass *analysis.Pass, call *ast.CallExpr, fields guarded) (*types.Var, string) {
	msel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fsel, ok := msel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fv, ok := pass.Info.Uses[fsel.Sel].(*types.Var)
	if !ok {
		return nil, ""
	}
	if _, isGuarded := fields[fv.Origin()]; !isGuarded {
		return nil, ""
	}
	return fv.Origin(), msel.Sel.Name
}
