package allocproof

// The allocation classifier: which syntax allocates. allocproof applies it
// node by node along the warm paths of a hot function's control-flow graph,
// and to the warm paths of every same-package helper those paths call. It
// rejects the constructs that create garbage:
//
//   - make/new, slice and map literals, and heap-escaping &T{...} literals;
//   - append outside the reused-buffer pattern `buf = append(buf, ...)`;
//   - closures, go and defer statements, and method-value bindings;
//   - fmt/errors/strconv formatting calls (panic arguments are exempt:
//     wiring-error panics are cold by definition);
//   - implicit or explicit conversions to interface types, and
//     string<->[]byte conversions and string concatenation.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// walkAllocs walks the subtree rooted at root, reporting every
// allocation-inducing construct through report. Subtrees under panic(...)
// are exempt (wiring-error panics are cold by definition).
func walkAllocs(pass *analysis.Pass, root ast.Node, report func(pos token.Pos, message string)) {
	reportf := func(pos token.Pos, format string, args ...any) {
		report(pos, fmt.Sprintf(format, args...))
	}
	analysis.WalkStack(root, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			report(x.Pos(), "go statement in the hot path: goroutine launch allocates")
		case *ast.DeferStmt:
			report(x.Pos(), "defer in the hot path: deferred frames cost on every cycle")
		case *ast.FuncLit:
			report(x.Pos(), "closure literal in the hot path: the closure (and its captures) may allocate per cycle")
			return false
		case *ast.CompositeLit:
			checkCompositeLit(pass, x, stack, report)
		case *ast.BinaryExpr:
			if x.Op.String() == "+" && isString(pass, x.X) {
				report(x.Pos(), "string concatenation in the hot path allocates")
			}
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.MethodVal && !isCallFun(stack, x) {
				report(x.Pos(), "method-value binding in the hot path allocates a bound-method closure")
			}
		case *ast.CallExpr:
			return checkCall(pass, x, stack, report, reportf)
		}
		return true
	})
}

// checkCall inspects one call in the hot path. It returns false to prune
// traversal (panic arguments).
func checkCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, report func(token.Pos, string), reportf func(token.Pos, string, ...any)) bool {
	// Builtins and panic.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				return false // wiring-error panics are cold; their args don't count
			case "make", "new":
				reportf(call.Pos(), "%s in the hot path allocates; hoist the buffer into the owning struct", b.Name())
			case "append":
				checkAppend(call, stack, report)
			}
			return true
		}
	}

	// Conversions: T(x).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		checkConversion(pass, call, tv.Type, report, reportf)
		return true
	}

	// Known-allocating formatting helpers.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "fmt", "errors", "strconv":
				reportf(call.Pos(), "%s.%s in the hot path allocates; move formatting off the per-cycle path",
					obj.Pkg().Name(), sel.Sel.Name)
				return true
			}
		}
	}

	// Implicit interface conversions at the call boundary.
	sig, ok := funcSignature(pass, call)
	if !ok {
		return true
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, call.Ellipsis.IsValid())
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if _, isTypeParam := pt.(*types.TypeParam); isTypeParam {
			continue
		}
		at, ok := pass.Info.Types[arg]
		if !ok || at.Type == nil || types.IsInterface(at.Type) || isNil(at) {
			continue
		}
		reportf(arg.Pos(), "implicit conversion of %s to interface %s in the hot path may allocate (escaping interface box)",
			at.Type, pt)
	}
	return true
}

// checkAppend allows only the reused-buffer pattern buf = append(buf, ...):
// the result written straight back to the first argument, so growth is
// amortized into a persistent buffer.
func checkAppend(call *ast.CallExpr, stack []ast.Node, report func(token.Pos, string)) {
	if len(call.Args) > 0 && len(stack) > 0 {
		if as, ok := stack[len(stack)-1].(*ast.AssignStmt); ok &&
			len(as.Lhs) == 1 && len(as.Rhs) == 1 && as.Rhs[0] == call &&
			as.Tok.String() == "=" &&
			types.ExprString(as.Lhs[0]) == types.ExprString(call.Args[0]) {
			return
		}
	}
	report(call.Pos(), "append outside the reused-buffer pattern `buf = append(buf, ...)` in the hot path: growing a fresh slice allocates")
}

// checkCompositeLit flags slice/map literals and heap-escaping &T{...}.
func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit, stack []ast.Node, report func(token.Pos, string)) {
	tv, ok := pass.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		report(lit.Pos(), "slice literal in the hot path allocates a fresh backing array")
		return
	case *types.Map:
		report(lit.Pos(), "map literal in the hot path allocates")
		return
	}
	if len(stack) > 0 {
		if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op.String() == "&" && u.X == lit {
			report(lit.Pos(), "&composite literal in the hot path heap-allocates")
		}
	}
}

// checkConversion flags conversions that copy or box.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr, to types.Type, report func(token.Pos, string), reportf func(token.Pos, string, ...any)) {
	if len(call.Args) != 1 {
		return
	}
	at, ok := pass.Info.Types[call.Args[0]]
	if !ok || at.Type == nil {
		return
	}
	from := at.Type.Underlying()
	toU := to.Underlying()
	if types.IsInterface(to) && !types.IsInterface(at.Type) && !isNil(at) {
		reportf(call.Pos(), "conversion of %s to interface %s in the hot path may allocate", at.Type, to)
		return
	}
	if isStringByte(from, toU) {
		report(call.Pos(), "string<->[]byte conversion in the hot path copies and allocates")
	}
}

// isStringByte reports a string <-> []byte/[]rune conversion pair.
func isStringByte(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(from) && isByteSlice(to)) || (isByteSlice(from) && isStr(to))
}

// funcSignature extracts the callee signature, if n is a plain call.
func funcSignature(pass *analysis.Pass, call *ast.CallExpr) (*types.Signature, bool) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return sig, ok
}

// paramType returns the effective parameter type for argument i.
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 && !ellipsis {
		last := params.At(n - 1).Type()
		if s, ok := last.Underlying().(*types.Slice); ok {
			return s.Elem()
		}
		return last
	}
	if i >= n {
		return nil
	}
	return params.At(i).Type()
}

// isString reports whether e has string type.
func isString(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isNil reports an untyped nil argument.
func isNil(tv types.TypeAndValue) bool {
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// isCallFun reports whether sel is the Fun of its parent call.
func isCallFun(stack []ast.Node, sel *ast.SelectorExpr) bool {
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	return ok && call.Fun == sel
}
