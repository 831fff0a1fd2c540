package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// ConcurrencyPackages are the goroutine-heavy packages the concurrency
// analyzers (goctx, lockorder, chanflow, wgsafe) gate: the session driver,
// the HTTP serving layer, the parallel Compass engine, and the engine
// substrate. The scale-out roadmap items (sharded engines, batched session
// scheduling) all land inside this set.
var ConcurrencyPackages = []string{
	Module + "/internal/runtime",
	Module + "/internal/serve",
	Module + "/internal/compass",
	Module + "/internal/sim",
}

// pathMatches reports whether path is in patterns, honoring the same
// trailing-/... wildcard Analyzer.Packages uses.
func pathMatches(patterns []string, path string) bool {
	return (&Analyzer{Packages: patterns}).applies(path)
}

// pkgBase returns the last element of an import path — the unit lock and
// field identities are rendered in ("serve.Server.mu", "sim.registryMu").
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// namedTypeOf strips a pointer and returns t's *types.Named, or nil.
func namedTypeOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// localLockPrefix marks held-set keys for locks without a canonical name
// (locals, unresolved receivers). They count as "a lock is held" for the
// blocking checks but never become lock-order graph nodes.
const localLockPrefix = "#"

// lockKey canonicalizes the mutex expression of a .Lock()/.RLock() call
// into a program-wide identity: "pkg.Type.field" for a struct-field mutex,
// "pkg.var" for a package-level one. Locks that resolve to neither (locals,
// type info missing) return "".
func lockKey(pkg *Package, mutex ast.Expr) string {
	switch e := ast.Unparen(mutex).(type) {
	case *ast.SelectorExpr:
		if named := namedTypeOf(pkg.TypeOf(e.X)); named != nil && named.Obj() != nil && named.Obj().Pkg() != nil {
			return pkgBase(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + e.Sel.Name
		}
	case *ast.Ident:
		if pkg.Info != nil {
			if v, ok := pkg.Info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return pkgBase(v.Pkg().Path()) + "." + v.Name()
			}
		}
	}
	return ""
}

// heldKey returns the held-set key for a mutex expression: the canonical
// identity when one resolves, otherwise a local pseudo-key from the
// expression path.
func heldKey(pkg *Package, mutex ast.Expr, path string) string {
	if k := lockKey(pkg, mutex); k != "" {
		return k
	}
	return localLockPrefix + path
}

// lockDisplay renders a held-set key for messages, stripping the local
// marker.
func lockDisplay(key string) string {
	return strings.TrimPrefix(key, localLockPrefix)
}

// heldHooks are the events a held-lock walk reports; nil hooks are
// skipped. Every hook that carries the held set fires only while at least
// one lock is held, except acquire, which fires at every acquisition.
type heldHooks struct {
	// acquire fires at each Lock/RLock with the set held before it — the
	// direct lock-order edges.
	acquire func(key string, pos token.Pos, held map[string]token.Pos)
	// call fires at each resolved module-local call edge (go-spawned
	// edges excluded: the callee runs on its own goroutine with its own
	// relation to the locks).
	call func(e CallEdge, held map[string]token.Pos)
	// block fires at each of the body's own blocking operations — the
	// HazardBlock sites the Program classified.
	block func(h Hazard, held map[string]token.Pos)
	// leak fires at a return, and at the closing brace of a body that
	// falls off its end, once per lock still held there with no deferred
	// unlock.
	leak func(key string, pos token.Pos)
}

// heldWalker drives a lexical walk of one function body tracking the set
// of held locks, branching into if/for/select/switch arms with a copy of
// the set. It is the suite's one held-lock walk: lockorder listens for
// acquisitions, calls and leaks, chanflow for calls and blocking sites.
//
// Deferred unlocks keep the lock in the held set: for ordering and
// blocking purposes a deferred release happens too late to matter, but it
// does sanction every return path. Func literals — stored, deferred, or
// go-spawned — walk as fresh scopes with an empty held set; they run with
// whatever is held at their eventual call site, which this lexical walk
// cannot know. The walk is a discipline check, not a proof: the -race tier
// of check.sh remains its dynamic complement.
type heldWalker struct {
	pkg      *Package
	edges    map[token.Pos]CallEdge
	blocks   map[token.Pos]Hazard
	held     map[string]token.Pos
	deferred map[string]bool
	hooks    *heldHooks
}

// walkHeld runs the held-lock walk over one function node.
func walkHeld(pkg *Package, node *FuncNode, hooks heldHooks) {
	w := &heldWalker{
		pkg:      pkg,
		edges:    map[token.Pos]CallEdge{},
		blocks:   map[token.Pos]Hazard{},
		held:     map[string]token.Pos{},
		deferred: map[string]bool{},
		hooks:    &hooks,
	}
	for _, e := range node.Calls {
		if !e.InGo {
			w.edges[e.Pos] = e
		}
	}
	for _, h := range node.hazards[HazardBlock] {
		w.blocks[h.Pos] = h
	}
	w.walkBody(node.Decl.Body)
}

// walkBody walks a function or literal body, then checks the path that
// falls off its closing brace for leaked locks.
func (w *heldWalker) walkBody(b *ast.BlockStmt) {
	w.walkBlock(b)
	if n := len(b.List); n > 0 {
		if _, isReturn := b.List[n-1].(*ast.ReturnStmt); isReturn {
			return
		}
	}
	w.leaks(b.Rbrace)
}

func (w *heldWalker) fresh() *heldWalker {
	c := *w
	c.held = map[string]token.Pos{}
	c.deferred = map[string]bool{}
	return &c
}

func (w *heldWalker) clone() *heldWalker {
	c := *w
	c.held = maps.Clone(w.held)
	c.deferred = maps.Clone(w.deferred)
	return &c
}

// leaks reports every held lock without a deferred unlock at pos.
func (w *heldWalker) leaks(pos token.Pos) {
	if w.hooks.leak == nil {
		return
	}
	var leaked []string
	for key := range w.held {
		if !w.deferred[key] {
			leaked = append(leaked, key)
		}
	}
	sort.Strings(leaked)
	for _, key := range leaked {
		w.hooks.leak(key, pos)
	}
}

// blocking reports a blocking operation at pos when a lock is held.
func (w *heldWalker) blocking(pos token.Pos) {
	if h, ok := w.blocks[pos]; ok && len(w.held) > 0 && w.hooks.block != nil {
		w.hooks.block(h, w.held)
	}
}

func (w *heldWalker) walkBlock(b *ast.BlockStmt) {
	for _, s := range b.List {
		w.walkStmt(s)
	}
}

func (w *heldWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkBlock(s)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.ExprStmt:
		if path, op, ok := mutexOp(s.X); ok {
			w.applyMutexOp(s.X.(*ast.CallExpr), path, op, s.Pos())
			return
		}
		w.scanExpr(s.X)
	case *ast.DeferStmt:
		if path, op, ok := mutexOp(s.Call); ok && strings.HasSuffix(op, "Unlock") {
			// Deferred release: the lock stays held for this walk, but
			// every return path from here on is sanctioned.
			sel := s.Call.Fun.(*ast.SelectorExpr) // mutexOp guarantees the shape
			w.deferred[heldKey(w.pkg, sel.X, path)] = true
			return
		}
		for _, a := range s.Call.Args {
			w.scanExpr(a)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.fresh().walkBody(fl.Body)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e)
		}
		w.leaks(s.Pos())
	case *ast.SendStmt:
		w.blocking(s.Pos())
		w.scanExpr(s.Chan)
		w.scanExpr(s.Value)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.scanExpr(s.Cond)
		w.clone().walkBlock(s.Body)
		if s.Else != nil {
			w.clone().walkStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond)
		}
		body := w.clone()
		body.walkBlock(s.Body)
		if s.Post != nil {
			body.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		w.blocking(s.Pos())
		w.scanExpr(s.X)
		w.clone().walkBlock(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag)
		}
		w.walkCases(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.walkCases(s.Body)
	case *ast.SelectStmt:
		// The comm operations are the select's blocking point, not
		// blocking sites of their own: the Program records only the
		// select.
		w.blocking(s.Pos())
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			arm := w.clone()
			if cc.Comm != nil {
				arm.walkStmt(cc.Comm)
			}
			for _, bs := range cc.Body {
				arm.walkStmt(bs)
			}
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			w.scanExpr(a)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.fresh().walkBody(fl.Body)
		}
	default:
		if s != nil {
			ast.Inspect(s, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					w.scanExpr(e)
					return false
				}
				return true
			})
		}
	}
}

func (w *heldWalker) walkCases(body *ast.BlockStmt) {
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		arm := w.clone()
		for _, e := range cc.List {
			arm.scanExpr(e)
		}
		for _, bs := range cc.Body {
			arm.walkStmt(bs)
		}
	}
}

func (w *heldWalker) applyMutexOp(call *ast.CallExpr, path, op string, pos token.Pos) {
	sel := call.Fun.(*ast.SelectorExpr) // mutexOp guarantees the shape
	key := heldKey(w.pkg, sel.X, path)
	switch op {
	case "Lock", "RLock":
		if w.hooks.acquire != nil {
			w.hooks.acquire(key, pos, w.held)
		}
		w.held[key] = pos
	case "Unlock", "RUnlock":
		delete(w.held, key)
	}
}

// scanExpr scans one expression for blocking operations and call edges
// made while locks are held. Func literals are fresh scopes.
func (w *heldWalker) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.fresh().walkBody(n.Body)
			return false
		case *ast.UnaryExpr:
			w.blocking(n.Pos())
		case *ast.CallExpr:
			w.blocking(n.Pos())
			if edge, ok := w.edges[n.Pos()]; ok && len(w.held) > 0 && w.hooks.call != nil {
				w.hooks.call(edge, w.held)
			}
		}
		return true
	})
}

// mutexOp decomposes a statement-level call into (lock path, method) when
// it is an argument-less X.Lock/RLock/Unlock/RUnlock call.
func mutexOp(e ast.Expr) (path, op string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		if p := exprPath(sel.X); p != "" {
			return p, sel.Sel.Name, true
		}
	}
	return "", "", false
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
