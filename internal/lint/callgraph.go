package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// PerfHotDirective marks a function as part of the proven per-tick hot set.
// It is shared with the perfproof compiler-diagnostics gate (cmd/tnproof):
// functions carrying it get escape/bounds-check budgets there and join
// hotalloc's hot set here, so the two gates watch the same code.
const PerfHotDirective = "//perf:hot"

// coldFuncNames are sanctioned cold-path barriers: module functions whose
// hazards do not taint their callers because reaching them at all means the
// fast path already failed. bfs is the router's blocked-detour fallback
// (allocates a visited map and queue by design); inject is the engines'
// beyond-horizon injection queue (grows pending maps by design).
// Taint propagation stops at a barrier; the barrier's own body is still
// subject to whatever direct checks apply to its package.
var coldFuncNames = map[string]bool{
	"bfs":    true,
	"inject": true,
}

// HazardKind classifies an intrinsic hazard a function body can carry.
type HazardKind uint8

const (
	// HazardAlloc: the body contains a heap-shaped construct (the same
	// rules hotalloc applies to hot bodies, plus returning a func literal).
	HazardAlloc HazardKind = iota
	// HazardRand: the body draws from math/rand or reads time.Now.
	HazardRand
	// HazardGo: the body launches a goroutine.
	HazardGo
	// HazardBlock: the body performs a potentially blocking operation on
	// the calling goroutine — a channel send/receive, a select with no
	// default arm, a range over a channel, time.Sleep, or an argument-less
	// .Wait() call. Operations inside go-spawned func literals do not
	// count: they block the spawned goroutine, not the caller, and the
	// edges into spawned code are tagged InGo so the taint stays put.
	HazardBlock
	numHazardKinds
)

// Hazard is one intrinsic hazard at a position inside some function body.
type Hazard struct {
	Pos token.Pos
	Msg string
}

// FuncNode is one function declaration in the Program's call graph.
type FuncNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	// Calls are the module-local calls the body makes, in source order,
	// resolved through type information; calls to stdlib, to stubbed
	// externals, and through function values do not produce edges.
	Calls []CallEdge
	// hazards holds the body's intrinsic hazards per kind.
	hazards [numHazardKinds][]Hazard
}

// Name renders the node's message name: "Func" or "Recv.Func".
func (n *FuncNode) Name() string {
	fd := n.Decl
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.IndexExpr:
			t = u.X
		case *ast.IndexListExpr:
			t = u.X
		case *ast.Ident:
			return u.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// hot reports whether the node is in hotalloc's hot set: a per-tick kernel
// function by name, or any function carrying the //perf:hot directive.
func (n *FuncNode) hot() bool {
	return hotFuncNames[n.Decl.Name.Name] || hasPerfHot(n.Decl.Doc)
}

// barrier reports whether the node is a sanctioned cold-path fallback.
func (n *FuncNode) barrier() bool { return coldFuncNames[n.Decl.Name.Name] }

// hasPerfHot reports whether a doc comment contains the //perf:hot line.
func hasPerfHot(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == PerfHotDirective {
			return true
		}
	}
	return false
}

// CallEdge is one resolved call site or function-value reference.
type CallEdge struct {
	Pos    token.Pos // position of the call expression or reference
	Callee token.Pos // the callee's declaration-name position (Program key)
	Name   string    // callee name for messages
	// InGo marks an edge whose callee runs on a goroutine the caller
	// spawns: the operand of a go statement, or any call inside a
	// go-spawned func literal. Blocking taint does not flow back across
	// such edges — the spawned goroutine blocking does not block the
	// caller.
	InGo bool
}

// carries reports whether taint of the given kind flows back across the
// edge. Only blocking is goroutine-local; every other hazard (allocation,
// nondeterminism, goroutine launch) is a property of reaching the code at
// all.
func (e CallEdge) carries(kind HazardKind) bool {
	return !e.InGo || kind != HazardBlock
}

// Program is a module-local call graph over a set of type-checked packages
// sharing one FileSet. Analyzers use it to taint hazards through helper
// functions: a hot kernel function calling a helper that allocates (or draws
// nondeterministic randomness, or launches a goroutine) is reported at the
// call site, with the witness chain in the message.
type Program struct {
	pkgs  []*Package
	funcs map[token.Pos]*FuncNode
	memo  map[taintKey]*Taint
	// methods indexes method declarations by name for single-implementation
	// interface devirtualization; built lazily on first interface call.
	methods map[string][]*FuncNode
}

type taintKey struct {
	fn   token.Pos
	kind HazardKind
}

// NewProgram builds the call graph over pkgs. Packages must share a FileSet
// (the Loader and CheckPackages guarantee this); function objects are keyed
// by the position of their declaration name, which is how *types.Func
// objects from any importing package point back at their declaration.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		pkgs:  pkgs,
		funcs: map[token.Pos]*FuncNode{},
		memo:  map[taintKey]*Taint{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				node := &FuncNode{Pkg: pkg, Decl: fd}
				p.funcs[fd.Name.Pos()] = node
			}
		}
	}
	for _, node := range p.funcs {
		p.analyze(node)
	}
	return p
}

// FuncAt returns the node declared at the given name position, or nil.
func (p *Program) FuncAt(pos token.Pos) *FuncNode { return p.funcs[pos] }

// Packages returns the packages the program was built over, targets and
// context alike, in construction order.
func (p *Program) Packages() []*Package { return p.pkgs }

// Funcs calls visit for every function declared in pkg, in no particular
// order; callers needing determinism sort by position.
func (p *Program) Funcs(pkg *Package, visit func(*FuncNode)) {
	for _, n := range p.funcs {
		if n.Pkg == pkg {
			visit(n)
		}
	}
}

// analyze fills a node's call edges and intrinsic hazards.
func (p *Program) analyze(n *FuncNode) {
	pkg := n.Pkg
	p.scan(n, n.Decl.Body, false, map[*ast.Ident]bool{})
	// Alloc hazards reuse hotalloc's body rules: the helper is judged by
	// the same standard a hot body is, so taint and direct findings agree.
	resets := collectResets(pkg)
	aliases := collectAliases(n.Decl.Body)
	record := func(pos token.Pos, format string, args ...any) {
		n.hazards[HazardAlloc] = append(n.hazards[HazardAlloc],
			Hazard{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
	file := fileOf(pkg, n.Decl.Pos())
	checkHotBody(pkg, file, n.Decl.Body, false, aliases, resets, record)
}

// scan walks one subtree of n's body recording call edges and intrinsic
// hazards. inGo marks code running on a goroutine the body spawns: its
// edges are tagged InGo and its channel operations are not blocking
// hazards of n itself. direct collects identifiers that are the operator
// of a resolved call, so the function-value pass does not double-count
// them as reference edges.
func (p *Program) scan(n *FuncNode, root ast.Node, inGo bool, direct map[*ast.Ident]bool) {
	if root == nil {
		return
	}
	pkg := n.Pkg
	ast.Inspect(root, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			p.callSite(n, x, inGo, direct)
		case *ast.Ident:
			// A module-local function referenced as a value (method value,
			// callback argument, struct field init) is an edge too: the
			// reference is how the callee ends up running.
			if direct[x] || pkg.Info == nil {
				return true
			}
			if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
				if _, local := p.funcs[fn.Pos()]; local {
					n.Calls = append(n.Calls, CallEdge{Pos: x.Pos(), Callee: fn.Pos(), Name: x.Name, InGo: inGo})
				}
			}
		case *ast.GoStmt:
			n.hazards[HazardGo] = append(n.hazards[HazardGo],
				Hazard{Pos: x.Pos(), Msg: "launches a goroutine"})
			// Arguments are evaluated on the calling goroutine; the callee
			// (func literal body or named function) runs on the new one.
			for _, a := range x.Call.Args {
				p.scan(n, a, inGo, direct)
			}
			if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
				p.scan(n, fl.Body, true, direct)
			} else {
				p.callSite(n, x.Call, true, direct)
			}
			return false
		case *ast.SendStmt:
			if !inGo {
				n.hazards[HazardBlock] = append(n.hazards[HazardBlock],
					Hazard{Pos: x.Pos(), Msg: "a channel send"})
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !inGo {
				n.hazards[HazardBlock] = append(n.hazards[HazardBlock],
					Hazard{Pos: x.Pos(), Msg: "a channel receive"})
			}
		case *ast.SelectStmt:
			// A select blocks as a whole unless it has a default arm; the
			// comm operations themselves are the select's blocking point,
			// not separate hazards, so only their operands are scanned.
			if !inGo && !selectHasDefault(x) {
				n.hazards[HazardBlock] = append(n.hazards[HazardBlock],
					Hazard{Pos: x.Pos(), Msg: "a select with no default arm"})
			}
			for _, c := range x.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					p.scan(n, comm.Chan, inGo, direct)
					p.scan(n, comm.Value, inGo, direct)
				case *ast.ExprStmt:
					p.scanCommExpr(n, comm.X, inGo, direct)
				case *ast.AssignStmt:
					for _, e := range comm.Lhs {
						p.scan(n, e, inGo, direct)
					}
					for _, e := range comm.Rhs {
						p.scanCommExpr(n, e, inGo, direct)
					}
				case nil:
				default:
					p.scan(n, comm, inGo, direct)
				}
				for _, bs := range cc.Body {
					p.scan(n, bs, inGo, direct)
				}
			}
			return false
		case *ast.RangeStmt:
			if !inGo && pkg.Info != nil {
				if t := pkg.TypeOf(x.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						n.hazards[HazardBlock] = append(n.hazards[HazardBlock],
							Hazard{Pos: x.Pos(), Msg: "a range over a channel"})
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if _, ok := res.(*ast.FuncLit); ok {
					n.hazards[HazardAlloc] = append(n.hazards[HazardAlloc],
						Hazard{Pos: res.Pos(), Msg: "returns a func literal (closure allocation)"})
				}
			}
		}
		return true
	})
}

// scanCommExpr scans a select comm-clause expression: a top-level channel
// receive is the select's blocking point, so only its operand is scanned.
func (p *Program) scanCommExpr(n *FuncNode, e ast.Expr, inGo bool, direct map[*ast.Ident]bool) {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		p.scan(n, u.X, inGo, direct)
		return
	}
	p.scan(n, e, inGo, direct)
}

// callSite records the edge and hazards of one call expression.
func (p *Program) callSite(n *FuncNode, call *ast.CallExpr, inGo bool, direct map[*ast.Ident]bool) {
	pkg := n.Pkg
	if fn, id, ok := calleeFunc(pkg, call); ok {
		direct[id] = true
		if _, local := p.funcs[fn.Pos()]; local {
			n.Calls = append(n.Calls, CallEdge{Pos: call.Pos(), Callee: fn.Pos(), Name: fn.Name(), InGo: inGo})
		} else if impl := p.devirtualize(fn); impl != nil {
			n.Calls = append(n.Calls, CallEdge{Pos: call.Pos(), Callee: impl.Decl.Name.Pos(), Name: fn.Name(), InGo: inGo})
		}
	}
	if pkgPath, sel, ok := pkgCall(pkg, call); ok {
		switch {
		case pkgPath == "math/rand" || pkgPath == "math/rand/v2":
			n.hazards[HazardRand] = append(n.hazards[HazardRand],
				Hazard{Pos: call.Pos(), Msg: "draws from " + pkgPath + "." + sel})
		case pkgPath == "time" && sel == "Now":
			n.hazards[HazardRand] = append(n.hazards[HazardRand],
				Hazard{Pos: call.Pos(), Msg: "reads the wall clock (time.Now)"})
		case pkgPath == "time" && sel == "Sleep":
			if !inGo {
				n.hazards[HazardBlock] = append(n.hazards[HazardBlock],
					Hazard{Pos: call.Pos(), Msg: "time.Sleep"})
			}
		}
		return
	}
	if !inGo && len(call.Args) == 0 {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
			n.hazards[HazardBlock] = append(n.hazards[HazardBlock],
				Hazard{Pos: call.Pos(), Msg: "a Wait call"})
		}
	}
}

// devirtualize resolves a module-declared interface method to its concrete
// implementation when exactly one named type in the program implements the
// interface — the common registry/strategy shape where the indirection is
// structural, not behavioral. Two or more implementations stay unresolved:
// guessing an edge would attribute one implementation's hazards to all
// callers.
func (p *Program) devirtualize(fn *types.Func) *FuncNode {
	if fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), Module) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if p.methods == nil {
		p.methods = map[string][]*FuncNode{}
		for _, cand := range p.funcs {
			if cand.Decl.Recv != nil && len(cand.Decl.Recv.List) > 0 {
				name := cand.Decl.Name.Name
				p.methods[name] = append(p.methods[name], cand)
			}
		}
	}
	var match *FuncNode
	for _, cand := range p.methods[fn.Name()] {
		recv := receiverType(cand)
		if recv == nil || !implements(recv, iface) {
			continue
		}
		if match != nil && receiverNamed(recv) != receiverNamed(match) {
			return nil // ambiguous: more than one implementing type
		}
		if match == nil {
			match = cand
		}
	}
	return match
}

// receiverType returns the type of a method declaration's receiver via the
// declaring package's type info, or nil.
func receiverType(n *FuncNode) types.Type {
	if n.Pkg.Info == nil {
		return nil
	}
	tf, ok := n.Pkg.Info.Defs[n.Decl.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := tf.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// receiverNamed strips a pointer and returns the receiver's *types.Named,
// so value and pointer methods of one type count as one implementation.
func receiverNamed(v any) *types.Named {
	var t types.Type
	switch x := v.(type) {
	case types.Type:
		t = x
	case *FuncNode:
		t = receiverType(x)
	}
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implements reports whether the receiver type (or its pointer form)
// satisfies the interface.
func implements(recv types.Type, iface *types.Interface) bool {
	if types.Implements(recv, iface) {
		return true
	}
	if _, isPtr := recv.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(recv), iface)
	}
	return false
}

// fileOf finds the *ast.File of pkg containing pos.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// calleeFunc resolves a call expression to the *types.Func it names (and
// the identifier naming it) via type information. Calls through function
// values, stubbed imports, and builtins report ok=false.
func calleeFunc(pkg *Package, call *ast.CallExpr) (*types.Func, *ast.Ident, bool) {
	if pkg.Info == nil {
		return nil, nil, false
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, nil, false
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok || !fn.Pos().IsValid() {
		return nil, nil, false
	}
	return fn, id, true
}

// pkgCall resolves a call of the form pkgname.Sel(...) to the imported
// package's path, cross-checked against type info so shadowing locals do
// not match.
func pkgCall(pkg *Package, call *ast.CallExpr) (path, sel string, ok bool) {
	se, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := se.X.(*ast.Ident)
	if !isIdent || pkg.Info == nil {
		return "", "", false
	}
	pn, isPkg := pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), se.Sel.Name, true
}

// Taint is a transitive hazard: the chain of calls from the queried
// function down to the function whose body carries the hazard.
type Taint struct {
	Hazard Hazard
	// Chain holds the call edges walked to reach the hazard, outermost
	// first; Chain[0] names the function the queried body calls.
	Chain []CallEdge
}

// Describe renders the taint as "f → g: <hazard> (file:line)" for
// diagnostics. Positions use the base filename so messages stay stable
// across checkouts.
func (t *Taint) Describe(fset *token.FileSet) string {
	var sb strings.Builder
	for i, e := range t.Chain {
		if i > 0 {
			sb.WriteString(" → ")
		}
		sb.WriteString(e.Name)
	}
	pos := fset.Position(t.Hazard.Pos)
	fmt.Fprintf(&sb, ": %s (%s:%d)", t.Hazard.Msg, filepath.Base(pos.Filename), pos.Line)
	return sb.String()
}

// taint returns a hazard of the given kind reachable from (and including)
// the function declared at pos, or nil. Results are memoized; in-progress
// nodes (cycles) conservatively report clean for the re-entrant query, which
// is sound here because any hazard on the cycle is found from the first
// entry point.
func (p *Program) taint(pos token.Pos, kind HazardKind, visiting map[token.Pos]bool) *Taint {
	key := taintKey{fn: pos, kind: kind}
	if t, ok := p.memo[key]; ok {
		return t
	}
	n := p.funcs[pos]
	if n == nil || visiting[pos] {
		return nil
	}
	visiting[pos] = true
	defer delete(visiting, pos)

	var result *Taint
	if hs := n.hazards[kind]; len(hs) > 0 {
		result = &Taint{Hazard: hs[0]}
	} else {
		for _, e := range n.Calls {
			callee := p.funcs[e.Callee]
			if callee == nil || callee.barrier() || !e.carries(kind) {
				continue
			}
			if t := p.taint(e.Callee, kind, visiting); t != nil {
				chain := append([]CallEdge{e}, t.Chain...)
				result = &Taint{Hazard: t.Hazard, Chain: chain}
				break
			}
		}
	}
	if len(visiting) == 1 {
		// Only memoize at the outermost frame of this query tree; inner
		// results computed under a cycle guard may be incomplete.
		p.memo[key] = result
	}
	return result
}

// CallTaints reports, for each call edge of fn whose callee skip() does not
// exclude, the first transitive hazard of the given kind. Intrinsic hazards
// of fn's own body are not reported — the direct analyzers own those.
func (p *Program) CallTaints(fn *FuncNode, kind HazardKind, skip func(*FuncNode) bool) []*Taint {
	var out []*Taint
	for _, e := range fn.Calls {
		callee := p.funcs[e.Callee]
		if callee == nil || (skip != nil && skip(callee)) {
			continue
		}
		if t := p.EdgeTaint(e, kind); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// EdgeTaint reports the first transitive hazard of the given kind reachable
// through one call edge, with the edge prepended to the witness chain, or
// nil when the callee (and everything it reaches) is clean.
func (p *Program) EdgeTaint(e CallEdge, kind HazardKind) *Taint {
	callee := p.funcs[e.Callee]
	if callee == nil || callee.barrier() || !e.carries(kind) {
		return nil
	}
	if t := p.taint(e.Callee, kind, map[token.Pos]bool{}); t != nil {
		return &Taint{Hazard: t.Hazard, Chain: append([]CallEdge{e}, t.Chain...)}
	}
	return nil
}
