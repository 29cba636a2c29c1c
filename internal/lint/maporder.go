package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `for range` over a map whose body does something
// order-sensitive: emits trace records, sends messages, schedules events,
// prints, or accumulates into a slice declared outside the loop that is
// never sorted afterwards. Go randomizes map iteration order, so any of
// these lets nondeterminism leak into event ordering or test output and
// breaks byte-identical replay.
//
// The approved idiom — collect the keys, sort them, then range over the
// slice (see kernel.sortedProcs) — passes: an append into an outer slice
// is accepted when the enclosing function later hands that slice to
// sort.Slice / sort.Strings / etc.
type MapOrder struct{}

func (MapOrder) Name() string { return "maporder" }
func (MapOrder) Doc() string {
	return "no order-sensitive work (sends, appends to ordered state) driven by a raw map range"
}

// mapSinks are call names that make iteration order observable. Matching
// is by name (not type identity) so the rule also covers future
// look-alikes; the categories mirror the messages below.
var mapSinks = map[string]string{
	// trace emission
	"Emit": "emits trace records", "Log": "emits trace records", "trace": "emits trace records",
	// event scheduling
	"At": "schedules events", "After": "schedules events", "AfterWeak": "schedules events",
	// message sends
	"Send": "sends messages", "SendOp": "sends messages", "SendFrame": "sends messages",
	"Route": "sends messages", "route": "sends messages",
	"GiveMessage": "sends messages", "GiveMessageTo": "sends messages",
	// direct output
	"Print": "prints output", "Println": "prints output", "Printf": "prints output",
	"Fprint": "prints output", "Fprintln": "prints output", "Fprintf": "prints output",
}

func (MapOrder) Run(p *Pass) {
	for _, fd := range funcDecls(p.Pkg) {
		checkFuncMapRanges(p, fd.Body)
	}
}

func checkFuncMapRanges(p *Pass, fnBody *ast.BlockStmt) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Pkg.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(p, fnBody, rs)
		return true
	})
}

func checkMapRangeBody(p *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if what, bad := mapSinks[name]; bad {
			p.Reportf(call.Pos(), "%s inside `for range` over a map: map order is randomized, so this %s in nondeterministic order — iterate sorted keys instead", name, what)
			return true
		}
		if isBuiltinAppend(p, call) && len(call.Args) > 0 {
			target := call.Args[0]
			if declaredOutside(p, target, rs) && !sortedLater(p, fnBody, target) {
				p.Reportf(call.Pos(), "append to %s inside `for range` over a map without a later sort: the slice leaves this function in randomized order — collect then sort (see kernel.sortedProcs)", types.ExprString(target))
			}
		}
		return true
	})
}

// calleeName extracts the bare called name from f(...) or x.f(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	b, ok := p.Pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// declaredOutside reports whether the append target lives beyond the range
// statement: an identifier declared before the loop, or any field/selector
// expression (struct state outlives the loop by construction).
func declaredOutside(p *Pass, target ast.Expr, rs *ast.RangeStmt) bool {
	id, ok := target.(*ast.Ident)
	if !ok {
		return true
	}
	obj := p.Pkg.Info.Uses[id]
	if obj == nil {
		obj = p.Pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() < rs.Pos() || v.Pos() > rs.End()
}

// sortOrderers are the stdlib calls that impose a deterministic order on
// their first argument.
var sortOrderers = map[string]bool{
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"Strings": true, "Ints": true, "Float64s": true,
	"SortFunc": true, "SortStableFunc": true, // slices package
}

// sortedLater reports whether the enclosing function sorts the append
// target anywhere (the collect-keys-then-sort idiom sorts right after the
// loop, but any position in the function restores determinism before the
// slice escapes).
func sortedLater(p *Pass, fnBody *ast.BlockStmt, target ast.Expr) bool {
	want := types.ExprString(target)
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortOrderers[sel.Sel.Name] {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		if types.ExprString(call.Args[0]) == want {
			found = true
			return false
		}
		return true
	})
	return found
}
