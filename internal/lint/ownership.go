package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Ownership is the borrow-checker for pooled message envelopes. It runs a
// flow-sensitive, intraprocedural dataflow pass (ownflow.go) over every
// function of every package that can see the envelope package and reports:
//
//   - use-after-release: reading an envelope or its Body (directly or
//     through a slice alias) on any path after a Put — "on some path"
//     findings come from branch and loop joins;
//   - double release: a second Put reachable on any path — the runtime
//     panic in msg.Pool.Put catches only the paths a test happens to
//     drive, this catches them all;
//   - retention: storing a pooled envelope (or a slice of its Body) into a
//     struct field, map, slice, package variable, composite literal, or
//     closure — anything that can outlive the handler — outside a blessed
//     owner site.
//
// The ownership matrix that used to live in prose is declared in the code
// it governs:
//
//	//demos:owner <role> — <why>        blesses a retention site. On a
//	    function's doc comment it blesses the whole function (the function
//	    IS a retainer: ring push, pool free list, ARQ slot); on or above a
//	    statement it blesses that line only.
//	//demos:releases <param>            on a function declaration marks it
//	    as a releaser of the named envelope parameter (e.g. Kernel.putMsg
//	    wraps Pool.Put), so the analysis follows release semantics through
//	    the repo's own helpers.
//
// Known limits (documented, deliberate): the pass is intraprocedural — a
// release through an unannotated helper or an alias copy is invisible;
// functions containing goto are skipped; retention inside a container
// type parameter (ring[T]) is checked where the store happens, not at the
// call site. DESIGN.md §8 has the full rule catalogue.
type Ownership struct {
	// MsgPath is the import path of the envelope package: the package
	// defining Message and Pool (with Put).
	MsgPath string
}

func (Ownership) Name() string { return "ownership" }
func (Ownership) Doc() string {
	return "pooled-envelope borrow checker: use-after-Put, double-Put, unblessed retention (//demos:owner)"
}

// ownEnv is the per-package resolution of the envelope vocabulary.
type ownEnv struct {
	msgType  *types.Named // Message
	poolType *types.Named // Pool
	// releases maps module functions annotated //demos:releases <param> to
	// the index of the released parameter.
	releases map[*types.Func]int
}

func (o Ownership) Run(p *Pass) {
	if p.Pkg.Info == nil {
		return
	}
	env := o.resolve(p)
	if env == nil {
		return // this package cannot name an envelope
	}
	blessed := blessedLines(p)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasGoto(fd.Body) {
				continue // unstructured flow: skip rather than guess
			}
			w := &ownWalker{
				p:         p,
				env:       env,
				blessed:   blessed,
				funcBlsd:  hasDirective(fd.Doc, "owner"),
				reported:  make(map[string]bool),
				nonPooled: make(map[types.Object]bool),
			}
			w.stmt(fd.Body, newFlowState())
		}
	}
}

// resolve locates the envelope package's types as seen from p, plus the
// module-wide //demos:releases index. Returns nil when the analyzed
// package neither is nor imports the envelope package.
func (o Ownership) resolve(p *Pass) *ownEnv {
	var msgPkg *types.Package
	if p.Pkg.ImportPath == o.MsgPath {
		msgPkg = p.Pkg.Types
	} else {
		for _, imp := range p.Pkg.Types.Imports() {
			if imp.Path() == o.MsgPath {
				msgPkg = imp
				break
			}
		}
	}
	if msgPkg == nil {
		return nil
	}
	named := func(name string) *types.Named {
		tn, ok := msgPkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			return nil
		}
		n, _ := tn.Type().(*types.Named)
		return n
	}
	env := &ownEnv{
		msgType:  named("Message"),
		poolType: named("Pool"),
		releases: make(map[*types.Func]int),
	}
	if env.msgType == nil {
		return nil
	}

	// //demos:releases <param> sites across the whole module. Objects are
	// shared between packages (the loader hands dependents the same
	// *types.Package), so a kernel-internal helper resolves here too.
	for _, pkg := range p.Mod.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasDirective(fd.Doc, "releases") {
					continue
				}
				param := directiveArg(fd.Doc, "releases")
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				if idx := paramIndex(fn, param); idx >= 0 {
					env.releases[fn] = idx
				} else if pkg == p.Pkg {
					// Report in the declaring package only, once.
					p.Reportf(fd.Pos(), "//demos:releases names %q, which is not a parameter of %s", param, fd.Name.Name)
				}
			}
		}
	}
	return env
}

// directiveArg returns the first word after //demos:<name> in a doc group.
func directiveArg(doc *ast.CommentGroup, name string) string {
	if doc == nil {
		return ""
	}
	prefix := "//demos:" + name + " "
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, prefix); ok {
			rest = strings.TrimSpace(rest)
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	return ""
}

func paramIndex(fn *types.Func, name string) int {
	if name == "" {
		return -1
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Name() == name {
			return i
		}
	}
	return -1
}

// blessedLines collects the line-level //demos:owner directives of a
// package: each blesses retention findings on its own line and the line
// below (trailing comment or standalone line above). A roleless directive
// is itself a finding — the role names the retainer in the DESIGN.md §8
// blessed-retention table.
func blessedLines(p *Pass) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range p.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//demos:owner")
				if !ok {
					continue
				}
				role := strings.TrimSpace(rest)
				if i := strings.IndexAny(role, " \t"); i >= 0 {
					role = role[:i]
				}
				pos := p.Mod.Fset.Position(c.Pos())
				path := relPath(p.Mod.Root, pos.Filename)
				if role == "" || role == "—" {
					p.Reportf(c.Pos(), "//demos:owner needs a role: //demos:owner <role> — <why>")
					continue
				}
				if out[path] == nil {
					out[path] = make(map[int]bool)
				}
				out[path][pos.Line] = true
				out[path][pos.Line+1] = true
			}
		}
	}
	return out
}

// ownWalker carries the per-function analysis context. The flow engine in
// ownflow.go drives it; the methods below are the checks.
type ownWalker struct {
	p        *Pass
	env      *ownEnv
	blessed  map[string]map[int]bool
	funcBlsd bool
	ctxs     []*breakCtx
	// reported dedupes findings: loop fixpoints interpret a body up to
	// three times and must not report the same diagnostic three times.
	reported map[string]bool
	// nonPooled marks locals whose envelope provenance is a local
	// construction (&Message{...} or new(Message)) rather than a pool:
	// retaining or capturing one is ordinary Go, not a lifetime bug. This
	// is a walker-level, program-order approximation, deliberately not
	// part of the branch-joined flow state.
	nonPooled map[types.Object]bool
}

func (w *ownWalker) reportf(pos token.Pos, format string, args ...any) {
	key := w.p.Mod.Fset.Position(pos).String() + format
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.p.Reportf(pos, format, args...)
}

func (w *ownWalker) lineBlessed(pos token.Pos) bool {
	if w.funcBlsd {
		return true
	}
	position := w.p.Mod.Fset.Position(pos)
	return w.blessed[relPath(w.p.Mod.Root, position.Filename)][position.Line]
}

// ---- type and expression classification ----

func (w *ownWalker) objOf(id *ast.Ident) types.Object {
	info := w.p.Pkg.Info
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// isMsgPtr reports whether t is *Message of the envelope package.
func (w *ownWalker) isMsgPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := ptr.Elem().(*types.Named)
	return ok && n.Obj() == w.env.msgType.Obj()
}

// msgVar returns the local variable object when e is an identifier of
// envelope-pointer type (through parens). Fields and package-level
// variables are not flow-trackable and return nil.
func (w *ownWalker) msgVar(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, ok := w.objOf(id).(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Parent() == w.p.Pkg.Types.Scope() {
		return nil
	}
	if !w.isMsgPtr(v.Type()) {
		return nil
	}
	return v
}

// bodyOwner returns the envelope variable whose Body the expression
// aliases: m.Body, m.Body[i:j], or a slice variable bound as a body alias.
// st may be nil (pure syntactic check, aliases unavailable).
func (w *ownWalker) bodyOwner(e ast.Expr, st *flowState) types.Object {
	switch n := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if n.Sel.Name == "Body" {
			return w.msgVar(n.X)
		}
	case *ast.SliceExpr:
		return w.bodyOwner(n.X, st)
	case *ast.Ident:
		if st == nil {
			return nil
		}
		if v := w.objOf(n); v != nil {
			if info, ok := st.vars[v]; ok && info.kind == kBody {
				return info.owner
			}
		}
	}
	return nil
}

// releaseTarget reports whether call releases an envelope argument:
// (*Pool).Put from the envelope package, or a module function annotated
// //demos:releases. Returns the released argument expression, or nil.
func (w *ownWalker) releaseTarget(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	var fn *types.Func
	if ok {
		fn, _ = w.p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		fn, _ = w.p.Pkg.Info.Uses[id].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	if fn.Name() == "Put" && w.recvIsPool(fn) && len(call.Args) == 1 {
		return call.Args[0]
	}
	if idx, ok := w.env.releases[fn]; ok && idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

func (w *ownWalker) recvIsPool(fn *types.Func) bool {
	if w.env.poolType == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == w.env.poolType.Obj()
}

// ---- uses ----

// useVar checks one identifier read against the abstract state.
func (w *ownWalker) useVar(id *ast.Ident, st *flowState) {
	obj := w.objOf(id)
	if obj == nil {
		return
	}
	info, ok := st.vars[obj]
	if !ok {
		return
	}
	switch info.kind {
	case kMsg:
		switch info.st {
		case osReleased:
			w.reportf(id.Pos(), "use of pooled envelope %q after release (Put at line %d)", id.Name, info.relLine)
		case osMaybe:
			w.reportf(id.Pos(), "use of pooled envelope %q that is released on some path (Put at line %d)", id.Name, info.relLine)
		}
	case kBody:
		if info.owner == nil {
			return
		}
		if oi, ok := st.vars[info.owner]; ok && oi.kind == kMsg && oi.st != osLive {
			some := ""
			if oi.st == osMaybe {
				some = " on some path"
			}
			w.reportf(id.Pos(), "use of %q, which aliases the body of envelope %q released%s at line %d", id.Name, info.owner.Name(), some, oi.relLine)
		}
	}
}

// ---- expressions ----

func (w *ownWalker) expr(e ast.Expr, st *flowState) {
	switch n := e.(type) {
	case nil:
	case *ast.Ident:
		w.useVar(n, st)
	case *ast.SelectorExpr:
		w.expr(n.X, st)
	case *ast.CallExpr:
		w.call(n, st)
	case *ast.FuncLit:
		w.funcLit(n, st)
	case *ast.CompositeLit:
		for _, elt := range n.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			w.checkStore(val, "a composite literal", st)
			w.expr(val, st)
		}
	case *ast.ParenExpr:
		w.expr(n.X, st)
	case *ast.UnaryExpr:
		w.expr(n.X, st)
	case *ast.BinaryExpr:
		w.expr(n.X, st)
		w.expr(n.Y, st)
	case *ast.StarExpr:
		w.expr(n.X, st)
	case *ast.IndexExpr:
		w.expr(n.X, st)
		w.expr(n.Index, st)
	case *ast.IndexListExpr:
		w.expr(n.X, st)
	case *ast.SliceExpr:
		w.expr(n.X, st)
		w.expr(n.Low, st)
		w.expr(n.High, st)
		w.expr(n.Max, st)
	case *ast.TypeAssertExpr:
		w.expr(n.X, st)
	case *ast.KeyValueExpr:
		w.expr(n.Value, st)
	}
}

func (w *ownWalker) call(call *ast.CallExpr, st *flowState) {
	if rel := w.releaseTarget(call); rel != nil {
		w.expr(call.Fun, st)
		for _, a := range call.Args {
			if a != rel {
				w.expr(a, st)
			}
		}
		w.release(rel, st)
		return
	}

	w.expr(call.Fun, st)
	for _, a := range call.Args {
		w.expr(a, st)
	}
}

// release applies Put semantics to the released expression.
func (w *ownWalker) release(arg ast.Expr, st *flowState) {
	v := w.msgVar(arg)
	if v == nil {
		// Releasing a non-trackable expression (q.pop(), a field):
		// nothing to flow, but still use-check its parts.
		w.expr(arg, st)
		return
	}
	line := w.p.Mod.Fset.Position(arg.Pos()).Line
	info, ok := st.vars[v]
	if ok && info.kind == kMsg {
		switch info.st {
		case osReleased:
			w.reportf(arg.Pos(), "double release of pooled envelope %q (first Put at line %d)", v.Name(), info.relLine)
		case osMaybe:
			w.reportf(arg.Pos(), "release of pooled envelope %q that is already released on some path (first Put at line %d)", v.Name(), info.relLine)
		}
	}
	st.vars[v] = ownInfo{kind: kMsg, st: osReleased, relLine: line}
}

// funcLit flags closures that capture an envelope or body alias from the
// enclosing function: the closure may run after the handler returned and
// the envelope was recycled.
func (w *ownWalker) funcLit(lit *ast.FuncLit, st *flowState) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.objOf(id).(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil || v.Parent() == w.p.Pkg.Types.Scope() {
			return true
		}
		// Captured = declared outside the literal.
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		captured := ""
		if w.isMsgPtr(v.Type()) && !w.nonPooled[v] {
			captured = "pooled envelope"
		} else if info, ok := st.vars[v]; ok && info.kind == kBody {
			captured = "envelope body alias"
		}
		if captured != "" && !w.lineBlessed(id.Pos()) {
			w.reportf(id.Pos(), "closure captures %s %q, retaining it past handler return; bless the site with //demos:owner <role>", captured, v.Name())
		}
		return true
	})
}

// checkStoreRHS unwraps an append before the retention check, so
// `x.held = append(x.held, m)` reports m (the element actually retained),
// not the opaque call result.
func (w *ownWalker) checkStoreRHS(rhs ast.Expr, ctx string, st *flowState) {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(w.p, call) && !call.Ellipsis.IsValid() && len(call.Args) > 1 {
		for _, a := range call.Args[1:] {
			w.checkStore(a, ctx, st)
		}
		return
	}
	w.checkStore(rhs, ctx, st)
}

// checkStore reports a retention finding when val is a pooled envelope or
// body alias being stored into ctx (a field, element, or literal).
func (w *ownWalker) checkStore(val ast.Expr, ctx string, st *flowState) {
	if w.lineBlessed(val.Pos()) {
		return
	}
	if v := w.msgVar(val); v != nil && !w.nonPooled[v] {
		w.reportf(val.Pos(), "pooled envelope %q stored in %s, retaining it past handler return; bless with //demos:owner <role>", v.Name(), ctx)
		return
	}
	if owner := w.bodyOwner(val, st); owner != nil {
		w.reportf(val.Pos(), "body of envelope %q stored in %s; the backing array is recycled with the envelope — copy it or bless with //demos:owner <role>", owner.Name(), ctx)
	}
}

// ---- statements with binding effects ----

func (w *ownWalker) declStmt(n *ast.DeclStmt, st *flowState) {
	gd, ok := n.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			w.expr(v, st)
		}
		if len(vs.Values) == len(vs.Names) {
			for i, name := range vs.Names {
				w.bind(name, vs.Values[i], st)
			}
		} else {
			for _, name := range vs.Names {
				if obj := w.objOf(name); obj != nil {
					w.rebind(obj, st)
				}
			}
		}
	}
}

func (w *ownWalker) assign(n *ast.AssignStmt, st *flowState) {
	// Evaluate all RHS for uses first (Go evaluates RHS before assigning).
	for _, r := range n.Rhs {
		w.expr(r, st)
	}
	if len(n.Lhs) == len(n.Rhs) {
		for i := range n.Lhs {
			w.assignPair(n.Lhs[i], n.Rhs[i], st)
		}
		return
	}
	// Multi-value RHS (call, map read, type assertion): no envelope flows
	// we can model; rebind any tracked LHS vars and use-check LHS bases.
	for _, l := range n.Lhs {
		w.lhsEffects(l, nil, st)
	}
}

func (w *ownWalker) assignPair(lhs, rhs ast.Expr, st *flowState) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		w.bind(l, rhs, st)
	default:
		w.lhsEffects(lhs, rhs, st)
	}
}

// bind gives an identifier LHS its new abstract value.
func (w *ownWalker) bind(id *ast.Ident, rhs ast.Expr, st *flowState) {
	if id.Name == "_" {
		return
	}
	obj := w.objOf(id)
	if obj == nil {
		return
	}
	// Storing into a package-level variable escapes the handler.
	if v, ok := obj.(*types.Var); ok && v.Parent() == w.p.Pkg.Types.Scope() {
		w.checkStoreRHS(rhs, "package variable "+id.Name, st)
		return
	}
	// Envelope pointer: copy the source variable's state, or fresh-live.
	if w.isMsgPtr(obj.Type()) {
		if w.locallyBuilt(rhs) {
			w.nonPooled[obj] = true
			w.rebind(obj, st)
			return
		}
		if src := w.msgVar(rhs); src != nil {
			if w.nonPooled[src] {
				w.nonPooled[obj] = true
			} else {
				delete(w.nonPooled, obj)
			}
			if info, ok := st.vars[src]; ok {
				st.vars[obj] = info
				return
			}
		} else {
			delete(w.nonPooled, obj)
		}
		w.rebind(obj, st)
		return
	}
	// Body alias binding: b := m.Body[:0].
	if owner := w.bodyOwner(rhs, st); owner != nil {
		st.vars[obj] = ownInfo{kind: kBody, owner: owner}
		return
	}
	w.rebind(obj, st)
}

// locallyBuilt reports whether rhs constructs a fresh envelope outside
// any pool: &Message{...} or new(Message). Only Pool.Get (and annotated
// wrappers) hand out recycled envelopes, so these never dangle.
func (w *ownWalker) locallyBuilt(rhs ast.Expr) bool {
	switch n := ast.Unparen(rhs).(type) {
	case *ast.UnaryExpr:
		if n.Op != token.AND {
			return false
		}
		cl, ok := ast.Unparen(n.X).(*ast.CompositeLit)
		if !ok {
			return false
		}
		named, ok := w.p.Pkg.Info.TypeOf(cl).(*types.Named)
		return ok && named.Obj() == w.env.msgType.Obj()
	case *ast.CallExpr:
		id, ok := ast.Unparen(n.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		_, isBuiltin := w.objOf(id).(*types.Builtin)
		return isBuiltin && id.Name == "new" && w.isMsgPtr(w.p.Pkg.Info.TypeOf(n))
	}
	return false
}

// rebind resets a variable to untracked (implicitly live) and orphans any
// aliases bound to its previous value, so a rebound envelope variable
// cannot produce findings about the message it no longer names.
func (w *ownWalker) rebind(obj types.Object, st *flowState) {
	delete(st.vars, obj)
	for k, i := range st.vars {
		if i.kind == kBody && i.owner == obj {
			i.owner = nil
			st.vars[k] = i
		}
	}
}

// lhsEffects handles a non-identifier LHS: use-check the base (writing
// m.Body after Put is a use of m) and run the retention check on the value
// being stored. Storing an envelope's own body back into itself
// (m.Body = b where b aliases m) is the reuse idiom, not retention.
func (w *ownWalker) lhsEffects(lhs, rhs ast.Expr, st *flowState) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := w.objOf(l); obj != nil {
			w.rebind(obj, st)
		}
		return
	case *ast.SelectorExpr:
		w.expr(l.X, st)
		if rhs != nil {
			if base := w.msgVar(l.X); base != nil {
				if w.bodyOwner(rhs, st) == base {
					return // m.Body = m.Body[...]: in-place reuse
				}
			}
			w.checkStoreRHS(rhs, types.ExprString(lhs), st)
		}
	case *ast.IndexExpr:
		w.expr(l.X, st)
		w.expr(l.Index, st)
		if rhs != nil {
			w.checkStoreRHS(rhs, types.ExprString(lhs), st)
		}
	case *ast.StarExpr:
		w.expr(l.X, st)
		if rhs != nil {
			w.checkStoreRHS(rhs, types.ExprString(lhs), st)
		}
	}
}
