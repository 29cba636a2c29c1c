package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Ownership checks the single-releaser contract of pooled message envelopes
// with one syntactic pass per function. It reports:
//
//   - use after release: inside one statement list, a read of an envelope
//     local after Pool.Put (or a //demos:releases helper) released it, up to
//     the first assignment to the local;
//   - double release: a second release of that local in the same span;
//   - retention: storing a pooled envelope, or m.Body or m.Body[i:j]
//     (directly or through a local alias bound from either), into a field,
//     an element, an append, a package variable, a composite literal or a
//     closure capture outside a blessed owner site. &Message{} and
//     new(Message) are not pooled and are exempt.
//
// A release reaches only the rest of its own statement list: not out of a
// branch, not around a loop. The run time covers the rest (DESIGN.md §8.1).
//
// //demos:owner <role> — <why> blesses a retention site: on a function's doc
// comment the whole function (a retainer), on or above a statement that
// line. //demos:releases <param> marks a function as a releaser of that
// parameter, as Kernel.putMsg wraps Pool.Put.
type Ownership struct {
	// MsgPath is the import path of the envelope package: the package
	// defining Message and Pool (with Put).
	MsgPath string
}

func (Ownership) Name() string { return "ownership" }
func (Ownership) Doc() string {
	return "pooled envelopes: use-after-Put and double-Put within a statement list, unblessed retention (//demos:owner)"
}

func (o Ownership) Run(p *Pass) {
	w := &ownWalker{
		Ownership: o, p: p,
		releases:  make(map[*types.Func]int),
		blessed:   make(map[token.Position]bool),
		aliases:   make(map[types.Object]types.Object),
		nonPooled: make(map[types.Object]bool),
	}
	// //demos:releases <param> sites across the whole module; a misnamed
	// parameter is reported in its own package.
	for _, pkg := range p.Mod.Pkgs {
		for _, fd := range funcDecls(pkg) {
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil || !hasDirective(fd.Doc, "releases") {
				continue
			}
			param, params := "", fn.Type().(*types.Signature).Params()
			for _, c := range fd.Doc.List {
				if f := strings.Fields(c.Text); len(f) > 1 && f[0] == "//demos:releases" {
					param = f[1]
				}
			}
			w.releases[fn] = -1
			for i := range params.Len() {
				if params.At(i).Name() == param {
					w.releases[fn] = i
				}
			}
			if w.releases[fn] < 0 && pkg == p.Pkg {
				p.Reportf(fd.Pos(), "//demos:releases names %q, which is not a parameter of %s", param, fd.Name.Name)
			}
		}
	}
	// Line-level blessings: each covers its own line and the next (a
	// trailing comment, or a comment line above). A blessing without a role
	// is itself a finding: the role names the retainer in DESIGN.md §8.1.
	for _, f := range p.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//demos:owner")
				if !ok {
					continue
				}
				if role := strings.Fields(rest); len(role) == 0 || role[0] == "—" {
					p.Reportf(c.Pos(), "//demos:owner needs a role: //demos:owner <role> — <why>")
					continue
				}
				pos := p.Mod.Fset.Position(c.Pos())
				w.blessed[token.Position{Filename: pos.Filename, Line: pos.Line}] = true
				w.blessed[token.Position{Filename: pos.Filename, Line: pos.Line + 1}] = true
			}
		}
	}
	for _, fd := range funcDecls(p.Pkg) {
		w.funcBlsd = hasDirective(fd.Doc, "owner")
		clear(w.aliases)
		clear(w.nonPooled)
		ast.Inspect(fd.Body, w.visit)
	}
}

// ownWalker is the pass; its per-function state is reset for each function.
type ownWalker struct {
	Ownership
	p        *Pass
	releases map[*types.Func]int     // a //demos:releases function → its released parameter, -1 if misnamed
	blessed  map[token.Position]bool // file and line of each line-level blessing
	funcBlsd bool
	// aliases maps a slice local bound from m.Body or m.Body[i:j] to m;
	// nonPooled marks envelope locals bound from &Message{} or
	// new(Message). Both follow program order.
	aliases   map[types.Object]types.Object
	nonPooled map[types.Object]bool
}

// visit gives every statement list the release check, and every binding,
// store, literal and closure the retention check. A closure's body is not
// walked.
func (w *ownWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.BlockStmt:
		w.afterRelease(n.List)
	case *ast.CaseClause:
		w.afterRelease(n.Body)
	case *ast.CommClause:
		w.afterRelease(n.Body)
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			w.assign(lhs, pairOf(n.Rhs, i, len(n.Lhs)))
		}
	case *ast.ValueSpec:
		for i, name := range n.Names {
			w.assign(name, pairOf(n.Values, i, len(n.Names)))
		}
	case *ast.RangeStmt:
		w.assign(n.Key, nil)
		w.assign(n.Value, nil)
	case *ast.CompositeLit:
		for _, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			w.retained(elt, "a composite literal")
		}
	case *ast.FuncLit:
		// A closure may run after the handler returned and the envelope was
		// recycled: it must not capture an envelope or a body alias.
		ast.Inspect(n.Body, func(c ast.Node) bool {
			id, _ := c.(*ast.Ident)
			v := w.local(id)
			if v == nil || v.Pos() >= n.Pos() && v.Pos() <= n.End() || w.lineBlessed(id.Pos()) {
				return true
			}
			const why = "retaining it past handler return; bless the site with //demos:owner <role>"
			if w.ptrTo(v.Type(), "Message") && !w.nonPooled[v] {
				w.p.Reportf(id.Pos(), "closure captures pooled envelope %q, "+why, v.Name())
			} else if w.aliases[v] != nil {
				w.p.Reportf(id.Pos(), "closure captures envelope body alias %q, "+why, v.Name())
			}
			return true
		})
		return false
	}
	return true
}

// pairOf returns the right-hand side paired with the i-th of n left-hand
// sides, or nil when one multi-value expression feeds them all.
func pairOf(rhs []ast.Expr, i, n int) ast.Expr {
	if len(rhs) != n {
		return nil
	}
	return rhs[i]
}

// afterRelease checks one statement list: after a statement that releases
// an envelope local, a later read of it is a use after release and a later
// release a double release, up to the first assignment to it. A double
// release ends the span: the rest belongs to that release.
func (w *ownWalker) afterRelease(list []ast.Stmt) {
	for i, s := range list {
		var v types.Object
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
				v = w.msgVar(w.releaseTarget(call))
			}
		}
		line, done := w.p.Mod.Fset.Position(s.Pos()).Line, v == nil
		for _, later := range list[i+1:] {
			if done {
				break
			}
			ast.Inspect(later, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						done = done || w.msgVar(l) == v
					}
				case *ast.CallExpr:
					if a := w.releaseTarget(n); a != nil && w.msgVar(a) == v {
						w.p.Reportf(a.Pos(), "double release of pooled envelope %q (first Put at line %d)", v.Name(), line)
						done = true
					}
				case *ast.Ident:
					if w.p.Pkg.Info.ObjectOf(n) == v {
						w.p.Reportf(n.Pos(), "use of pooled envelope %q after release (Put at line %d)", n.Name, line)
					}
				}
				return !done
			})
		}
	}
}

// releaseTarget returns the argument a call releases — (*Pool).Put of the
// envelope package, or a //demos:releases function — or nil.
func (w *ownWalker) releaseTarget(call *ast.CallExpr) ast.Expr {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	fn, _ := w.p.Pkg.Info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && fn.Name() == "Put" && w.ptrTo(recv.Type(), "Pool") && len(call.Args) == 1 {
		return call.Args[0]
	}
	if idx, ok := w.releases[fn]; ok && idx >= 0 && idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// assign records what a local now holds — an envelope is pooled unless
// built locally, a slice may alias an envelope's body — or checks the store
// through a field, an element, a pointee or a package variable. m.Body = b
// where b aliases m's own body is the in-place reuse idiom, not retention.
func (w *ownWalker) assign(lhs, rhs ast.Expr) {
	id, isIdent := ast.Unparen(lhs).(*ast.Ident)
	if obj := w.local(id); obj != nil {
		delete(w.aliases, obj)
		if w.ptrTo(obj.Type(), "Message") {
			src := w.msgVar(rhs)
			w.nonPooled[obj] = w.locallyBuilt(rhs) || src != nil && w.nonPooled[src]
		} else if owner := w.bodyOwner(rhs); owner != nil {
			w.aliases[obj] = owner
		}
		return
	}
	if rhs == nil {
		return
	}
	ctx := types.ExprString(lhs)
	if isIdent {
		if v, ok := w.p.Pkg.Info.ObjectOf(id).(*types.Var); !ok || v.Parent() != w.p.Pkg.Types.Scope() {
			return // the blank identifier
		}
		ctx = "package variable " + id.Name
	} else if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		if base := w.msgVar(sel.X); base != nil && w.bodyOwner(rhs) == base {
			return
		}
	}
	// x.held = append(x.held, m) retains m, the element, not the call.
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(w.p, call) && !call.Ellipsis.IsValid() && len(call.Args) > 1 {
		for _, a := range call.Args[1:] {
			w.retained(a, ctx)
		}
		return
	}
	w.retained(rhs, ctx)
}

// retained reports val, stored into ctx, when it is a pooled envelope or a
// body alias and the site is not blessed.
func (w *ownWalker) retained(val ast.Expr, ctx string) {
	if w.lineBlessed(val.Pos()) {
		return
	}
	if v := w.msgVar(val); v != nil && !w.nonPooled[v] {
		w.p.Reportf(val.Pos(), "pooled envelope %q stored in %s, retaining it past handler return; bless with //demos:owner <role>", v.Name(), ctx)
	} else if owner := w.bodyOwner(val); owner != nil {
		w.p.Reportf(val.Pos(), "body of envelope %q stored in %s; the backing array is recycled with the envelope — copy it or bless with //demos:owner <role>", owner.Name(), ctx)
	}
}

// locallyBuilt reports whether rhs, bound to an envelope local, builds a
// fresh envelope outside any pool: &Message{...} or new(Message).
func (w *ownWalker) locallyBuilt(rhs ast.Expr) bool {
	switch n := ast.Unparen(rhs).(type) {
	case *ast.UnaryExpr:
		_, lit := ast.Unparen(n.X).(*ast.CompositeLit)
		return n.Op == token.AND && lit
	case *ast.CallExpr:
		id, _ := ast.Unparen(n.Fun).(*ast.Ident)
		return id != nil && w.p.Pkg.Info.Uses[id] == types.Universe.Lookup("new")
	}
	return false
}

func (w *ownWalker) lineBlessed(pos token.Pos) bool {
	at := w.p.Mod.Fset.Position(pos)
	return w.funcBlsd || w.blessed[token.Position{Filename: at.Filename, Line: at.Line}]
}

// local returns the function-local variable id names, or nil for a blank,
// a field, a package variable or anything else.
func (w *ownWalker) local(id *ast.Ident) *types.Var {
	v, ok := w.p.Pkg.Info.ObjectOf(id).(*types.Var)
	if !ok || id.Name == "_" || v.IsField() || v.Parent() == nil || v.Parent() == w.p.Pkg.Types.Scope() {
		return nil
	}
	return v
}

// ptrTo reports whether t is a pointer to the envelope package's type name.
func (w *ownWalker) ptrTo(t types.Type, name string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == w.MsgPath
}

// msgVar returns the envelope local e names (through parens), or nil.
func (w *ownWalker) msgVar(e ast.Expr) types.Object {
	id, _ := ast.Unparen(e).(*ast.Ident)
	if v := w.local(id); v != nil && w.ptrTo(v.Type(), "Message") {
		return v
	}
	return nil
}

// bodyOwner returns the envelope local whose Body e aliases: m.Body,
// m.Body[i:j], or a slice local bound from either.
func (w *ownWalker) bodyOwner(e ast.Expr) types.Object {
	switch n := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if n.Sel.Name == "Body" {
			return w.msgVar(n.X)
		}
	case *ast.SliceExpr:
		return w.bodyOwner(n.X)
	case *ast.Ident:
		return w.aliases[w.p.Pkg.Info.ObjectOf(n)]
	}
	return nil
}
