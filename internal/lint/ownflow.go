package lint

// ownflow.go is the dataflow core of the ownership analyzer: a
// flow-sensitive, intraprocedural abstract interpreter over the Go AST.
// Control flow is handled structurally — every branch point clones the
// abstract state, every merge point joins the clones, and loops iterate
// their bodies to a fixpoint — which is exactly a CFG walk where the basic
// blocks are the statement spans between branch/join points. The state
// lattice per tracked variable has height two (live ⊏ maybe-released,
// released ⊏ maybe-released), so fixpoints converge in at most three body
// passes.
//
// The checks themselves (what counts as a release, a use, an escape) live
// in ownership.go; this file only moves states around.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ownStatus is the per-variable lattice of the ownership analysis.
type ownStatus uint8

const (
	// osLive is the implicit default: an envelope the current path may
	// still use. Variables without an entry in flowState are live.
	osLive ownStatus = iota
	// osReleased: released (Put) on every path reaching this point.
	osReleased
	// osMaybe: released on at least one path reaching this point, live on
	// at least one other — the join of osLive and osReleased.
	osMaybe
)

// ownKind says what a flowState entry describes.
type ownKind uint8

const (
	kMsg  ownKind = iota // a pooled-envelope pointer variable
	kBody                // a slice variable aliasing some envelope's Body
)

// ownInfo is the abstract state of one tracked variable.
type ownInfo struct {
	kind ownKind
	st   ownStatus // kMsg only: release status
	// relLine is the line of the (first) release that made st non-live.
	relLine int
	// owner is the envelope variable a kBody entry aliases. A nil owner
	// means the alias was orphaned (its envelope variable was rebound) and
	// is no longer checked.
	owner types.Object
}

// flowState is the abstract machine state at one program point: the
// tracked variables and whether this point is reachable. Envelope
// variables without an entry are implicitly live.
type flowState struct {
	vars       map[types.Object]ownInfo
	terminated bool // a return/panic ended this path
}

func newFlowState() *flowState {
	return &flowState{vars: make(map[types.Object]ownInfo)}
}

func (s *flowState) clone() *flowState {
	c := &flowState{vars: make(map[types.Object]ownInfo, len(s.vars)), terminated: s.terminated}
	for k, v := range s.vars {
		c.vars[k] = v
	}
	return c
}

// joinStatus is the lattice join of two release statuses.
func joinStatus(a, b ownStatus) ownStatus {
	if a == b {
		return a
	}
	return osMaybe
}

// join merges two path states in place into s. A terminated path
// contributes nothing: the merge is just the other state.
func (s *flowState) join(o *flowState) {
	if o == nil || o.terminated {
		return
	}
	if s.terminated {
		s.vars, s.terminated = o.clone().vars, false
		return
	}
	for k, ov := range o.vars {
		sv, ok := s.vars[k]
		if !ok {
			// Present on one path only. For a kMsg entry the other path
			// left the variable implicitly live, so the merge is "maybe
			// released"; alias bindings just carry over.
			if ov.kind == kMsg && ov.st != osLive {
				ov.st = osMaybe
			}
			s.vars[k] = ov
			continue
		}
		switch sv.kind {
		case kMsg:
			sv.st = joinStatus(sv.st, ov.st)
			if sv.relLine == 0 {
				sv.relLine = ov.relLine
			}
		case kBody:
			if sv.owner != ov.owner {
				sv.owner = nil // ambiguous binding: stop checking
			}
		}
		s.vars[k] = sv
	}
	// kMsg entries on s's side only: the o path had them live.
	for k, sv := range s.vars {
		if _, ok := o.vars[k]; !ok && sv.kind == kMsg && sv.st != osLive {
			sv.st = osMaybe
			s.vars[k] = sv
		}
	}
}

// equal reports whether two states are indistinguishable (fixpoint test).
func (s *flowState) equal(o *flowState) bool {
	if s.terminated != o.terminated || len(s.vars) != len(o.vars) {
		return false
	}
	for k, sv := range s.vars {
		if ov, ok := o.vars[k]; !ok || sv != ov {
			return false
		}
	}
	return true
}

// breakCtx collects the states flowing out of break/continue statements so
// the enclosing loop or switch can join them into its exit state.
type breakCtx struct {
	label     string
	isLoop    bool // continue targets loops only
	breaks    []*flowState
	continues []*flowState
}

// stmt interprets one statement, mutating st in place.
func (w *ownWalker) stmt(s ast.Stmt, st *flowState) {
	if st.terminated {
		return // unreachable on this path
	}
	switch n := s.(type) {
	case *ast.BlockStmt:
		for _, s2 := range n.List {
			w.stmt(s2, st)
		}
	case *ast.ExprStmt:
		w.expr(n.X, st)
	case *ast.AssignStmt:
		w.assign(n, st)
	case *ast.DeclStmt:
		w.declStmt(n, st)
	case *ast.IfStmt:
		w.ifStmt(n, st)
	case *ast.ForStmt:
		w.forStmt(n, st, "")
	case *ast.RangeStmt:
		w.rangeStmt(n, st, "")
	case *ast.SwitchStmt:
		w.switchStmt(n, st, "")
	case *ast.TypeSwitchStmt:
		w.typeSwitchStmt(n, st, "")
	case *ast.SelectStmt:
		w.selectStmt(n, st)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			w.expr(r, st) // returning an envelope transfers ownership: use-checked, never an escape
		}
		st.terminated = true
	case *ast.BranchStmt:
		w.branch(n, st)
	case *ast.LabeledStmt:
		w.labeled(n, st)
	case *ast.DeferStmt:
		w.expr(n.Call, st)
	case *ast.GoStmt:
		w.expr(n.Call, st)
	case *ast.IncDecStmt:
		w.expr(n.X, st)
	case *ast.SendStmt:
		w.expr(n.Chan, st)
		w.expr(n.Value, st)
	case *ast.EmptyStmt:
	}
}

func (w *ownWalker) labeled(n *ast.LabeledStmt, st *flowState) {
	switch inner := n.Stmt.(type) {
	case *ast.ForStmt:
		w.forStmt(inner, st, n.Label.Name)
	case *ast.RangeStmt:
		w.rangeStmt(inner, st, n.Label.Name)
	case *ast.SwitchStmt:
		w.switchStmt(inner, st, n.Label.Name)
	case *ast.TypeSwitchStmt:
		w.typeSwitchStmt(inner, st, n.Label.Name)
	default:
		w.stmt(n.Stmt, st)
	}
}

func (w *ownWalker) branch(n *ast.BranchStmt, st *flowState) {
	label := ""
	if n.Label != nil {
		label = n.Label.Name
	}
	switch n.Tok {
	case token.BREAK:
		if c := w.findCtx(label, false); c != nil {
			c.breaks = append(c.breaks, st.clone())
		}
		st.terminated = true
	case token.CONTINUE:
		if c := w.findCtx(label, true); c != nil {
			c.continues = append(c.continues, st.clone())
		}
		st.terminated = true
	case token.GOTO:
		// Functions containing goto are skipped up front (see Run);
		// nothing to do here.
	case token.FALLTHROUGH:
		// Handled by switchStmt chaining clause states.
	}
}

// findCtx resolves the innermost matching break/continue target.
func (w *ownWalker) findCtx(label string, needLoop bool) *breakCtx {
	for i := len(w.ctxs) - 1; i >= 0; i-- {
		c := w.ctxs[i]
		if needLoop && !c.isLoop {
			continue
		}
		if label == "" || c.label == label {
			return c
		}
	}
	return nil
}

func (w *ownWalker) ifStmt(n *ast.IfStmt, st *flowState) {
	if n.Init != nil {
		w.stmt(n.Init, st)
	}
	w.expr(n.Cond, st)
	thenSt, elseSt := st.clone(), st.clone()

	w.stmt(n.Body, thenSt)
	if n.Else != nil {
		w.stmt(n.Else, elseSt)
	}
	thenSt.join(elseSt)
	*st = *thenSt
}

const maxLoopPasses = 3 // lattice height 2: three passes always converge

func (w *ownWalker) forStmt(n *ast.ForStmt, st *flowState, label string) {
	if n.Init != nil {
		w.stmt(n.Init, st)
	}
	head := st.clone()
	var ctx *breakCtx
	for pass := 0; pass < maxLoopPasses; pass++ {
		iter := head.clone()
		if n.Cond != nil {
			w.expr(n.Cond, iter)
		}
		ctx = &breakCtx{label: label, isLoop: true}
		w.ctxs = append(w.ctxs, ctx)
		body := iter.clone()
		w.stmt(n.Body, body)
		w.ctxs = w.ctxs[:len(w.ctxs)-1]
		for _, c := range ctx.continues {
			body.join(c)
		}
		if n.Post != nil {
			w.stmt(n.Post, body)
		}
		next := head.clone()
		next.join(body)
		if next.equal(head) {
			break
		}
		head = next
	}
	exit := head // condition-false exit (or loop never entered)
	if n.Cond == nil {
		// `for { ... }` only exits through break.
		exit.terminated = true
	}
	if ctx != nil {
		for _, b := range ctx.breaks {
			exit.join(b)
		}
	}
	*st = *exit
}

func (w *ownWalker) rangeStmt(n *ast.RangeStmt, st *flowState, label string) {
	w.expr(n.X, st)
	head := st.clone()
	var ctx *breakCtx
	for pass := 0; pass < maxLoopPasses; pass++ {
		iter := head.clone()
		// The iteration variables rebind at the top of every pass.
		w.bindRangeVars(n, iter)
		ctx = &breakCtx{label: label, isLoop: true}
		w.ctxs = append(w.ctxs, ctx)
		body := iter.clone()
		w.stmt(n.Body, body)
		w.ctxs = w.ctxs[:len(w.ctxs)-1]
		for _, c := range ctx.continues {
			body.join(c)
		}
		next := head.clone()
		next.join(body)
		if next.equal(head) {
			break
		}
		head = next
	}
	exit := head
	if ctx != nil {
		for _, b := range ctx.breaks {
			exit.join(b)
		}
	}
	*st = *exit
}

// bindRangeVars resets the key/value variables of a range loop: each
// iteration delivers a fresh element, so stale release states from a
// previous pass must not leak into the next one.
func (w *ownWalker) bindRangeVars(n *ast.RangeStmt, st *flowState) {
	for _, e := range []ast.Expr{n.Key, n.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := w.objOf(id); obj != nil {
			w.rebind(obj, st)
		}
	}
}

func (w *ownWalker) switchStmt(n *ast.SwitchStmt, st *flowState, label string) {
	if n.Init != nil {
		w.stmt(n.Init, st)
	}
	if n.Tag != nil {
		w.expr(n.Tag, st)
	}
	w.caseClauses(n.Body, st, label, func(c *ast.CaseClause, cs *flowState) {
		for _, e := range c.List {
			w.expr(e, cs)
		}
	})
}

func (w *ownWalker) typeSwitchStmt(n *ast.TypeSwitchStmt, st *flowState, label string) {
	if n.Init != nil {
		w.stmt(n.Init, st)
	}
	w.stmt(n.Assign, st)
	w.caseClauses(n.Body, st, label, func(*ast.CaseClause, *flowState) {})
}

// caseClauses runs each clause from the pre-switch state and joins the
// results; a trailing fallthrough chains one clause's out-state into the
// next clause's entry. Without a default clause the tag may match nothing,
// so the pre-state joins the exit too.
func (w *ownWalker) caseClauses(body *ast.BlockStmt, st *flowState, label string, head func(*ast.CaseClause, *flowState)) {
	ctx := &breakCtx{label: label}
	w.ctxs = append(w.ctxs, ctx)
	var exit *flowState
	hasDefault := false
	var fall *flowState
	for _, cs := range body.List {
		c, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if c.List == nil {
			hasDefault = true
		}
		clause := st.clone()
		head(c, clause)
		if fall != nil {
			clause.join(fall)
			fall = nil
		}
		for _, s2 := range c.Body {
			w.stmt(s2, clause)
		}
		if len(c.Body) > 0 {
			if br, ok := c.Body[len(c.Body)-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fall = clause.clone()
				fall.terminated = false
				continue
			}
		}
		if exit == nil {
			exit = clause
		} else {
			exit.join(clause)
		}
	}
	w.ctxs = w.ctxs[:len(w.ctxs)-1]
	if exit == nil {
		exit = st.clone()
	} else if !hasDefault {
		exit.join(st)
	}
	for _, b := range ctx.breaks {
		exit.join(b)
	}
	*st = *exit
}

func (w *ownWalker) selectStmt(n *ast.SelectStmt, st *flowState) {
	ctx := &breakCtx{}
	w.ctxs = append(w.ctxs, ctx)
	var exit *flowState
	for _, cs := range n.Body.List {
		c, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		clause := st.clone()
		if c.Comm != nil {
			w.stmt(c.Comm, clause)
		}
		for _, s2 := range c.Body {
			w.stmt(s2, clause)
		}
		if exit == nil {
			exit = clause
		} else {
			exit.join(clause)
		}
	}
	w.ctxs = w.ctxs[:len(w.ctxs)-1]
	if exit == nil {
		exit = st.clone()
	}
	for _, b := range ctx.breaks {
		exit.join(b)
	}
	*st = *exit
}

// hasGoto reports whether a function body contains a goto; such functions
// have unstructured flow the interpreter cannot model, so the analyzer
// skips them entirely rather than reporting wrong states.
func hasGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			found = true
		}
		return !found
	})
	return found
}
