package lint

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc checks functions annotated //demos:hotpath — the
// zero-allocation steady-state paths guarded dynamically by
// TestHotPathZeroAlloc in bench_hotpath_test.go. The dynamic guard catches
// a regression only on the inputs the test happens to drive; this static
// rule rejects the constructs that allocate on any input:
//
//   - any call into package fmt (interface boxing + formatting state),
//   - a func literal that captures enclosing variables (closure allocation),
//   - passing a concrete value where an interface is expected (boxing;
//     pointer-shaped values excepted — they are the interface's data word),
//   - an append that visibly allocates in the AST: growing a freshly made
//     nil/empty slice, or assigning the result to a different slice than it
//     extends. Self-extension (x = append(x, ...), return append(b, ...))
//     is the amortized arena/buffer idiom and passes.
//
// Annotate a function only when bench_hotpath_test.go also exercises it,
// and cross-reference the benchmark in the annotation comment.
type HotPathAlloc struct{}

func (HotPathAlloc) Name() string { return "hotpathalloc" }
func (HotPathAlloc) Doc() string {
	return "//demos:hotpath functions must not contain allocating constructs (make, new, append-grow, closures, boxing)"
}

func (HotPathAlloc) Run(p *Pass) {
	for _, fd := range funcDecls(p.Pkg) {
		if hasDirective(fd.Doc, "hotpath") {
			checkHotPath(p, fd)
		}
	}
}

func checkHotPath(p *Pass, fd *ast.FuncDecl) {
	// Map append calls to the expression their result is assigned to, so
	// `y = append(x, ...)` can be distinguished from self-extension.
	assignedTo := make(map[*ast.CallExpr]ast.Expr)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(p, call) {
				assignedTo[call] = as.Lhs[i]
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			if name, captured := capturesOuter(p, fd, node); captured {
				p.Reportf(node.Pos(), "closure capturing %q allocates on a //demos:hotpath function; hoist the closure or pass state explicitly (guarded by TestHotPathZeroAlloc)", name)
			}
		case *ast.CallExpr:
			checkHotPathCall(p, node, assignedTo)
		}
		return true
	})
}

func checkHotPathCall(p *Pass, call *ast.CallExpr, assignedTo map[*ast.CallExpr]ast.Expr) {
	info := p.Pkg.Info

	if isBuiltinAppend(p, call) {
		if len(call.Args) == 0 {
			return
		}
		first := call.Args[0]
		if freshSlice(info, first) {
			p.Reportf(call.Pos(), "append to a fresh slice allocates on a //demos:hotpath function; reuse a caller-provided or pooled buffer")
			return
		}
		if lhs, ok := assignedTo[call]; ok && types.ExprString(lhs) != types.ExprString(first) {
			p.Reportf(call.Pos(), "append result assigned to %s but extends %s: this copies into a new backing array on a //demos:hotpath function; extend in place (x = append(x, ...))",
				types.ExprString(lhs), types.ExprString(first))
		}
		return
	}

	// Type conversion T(x)?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isInterface(tv.Type) && isConcrete(info, call.Args[0]) {
			p.Reportf(call.Pos(), "conversion to interface %s boxes its operand on a //demos:hotpath function", tv.Type.String())
		}
		return
	}

	// Builtin (panic, len, copy, ...)? Nothing further to check.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			p.Reportf(call.Pos(), "fmt.%s on a //demos:hotpath function: fmt boxes every operand and allocates; use strconv/append or hoist to a cold helper (guarded by TestHotPathZeroAlloc)", fn.Name())
			return
		}
	}

	// Concrete argument passed to an interface parameter (implicit boxing).
	sig := signatureOf(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isInterface(pt) && isConcrete(info, arg) {
			p.Reportf(arg.Pos(), "concrete value passed as interface %s boxes on a //demos:hotpath function", pt.String())
		}
	}
}

func signatureOf(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// isConcrete reports whether the expression has a non-interface, non-nil
// type that using it as an interface boxes. A pointer-shaped value (pointer,
// map, chan, func, unsafe.Pointer) is itself the interface's data word and
// allocates nothing.
func isConcrete(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.UnsafePointer
	}
	return true
}

// freshSlice reports an append base that is visibly brand new in the AST:
// []T(nil), []T{}, or []T{...}.
func freshSlice(info *types.Info, e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if tv, ok := info.Types[v.Fun]; ok && tv.IsType() {
			return true // conversion like []byte(nil)
		}
	}
	return false
}

// capturesOuter reports the first variable a func literal captures from
// its enclosing function (package-level state and struct fields do not
// count: only stack variables force a heap-allocated closure).
func capturesOuter(p *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) (string, bool) {
	info := p.Pkg.Info
	pkgScope := p.Pkg.Types.Scope()
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == pkgScope || v.Parent() == nil {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			if v.Pos() >= fd.Pos() && v.Pos() <= fd.End() {
				name = v.Name()
				return false
			}
		}
		return true
	})
	return name, name != ""
}

func recvTypeName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(v.X)
	case *ast.Ident:
		return v.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(v.X)
	}
	return "?"
}
