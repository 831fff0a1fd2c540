package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// WgSafe returns the WaitGroup-protocol analyzer for the concurrency
// packages. sync.WaitGroup's contract is positional, not just pairwise:
// the Add must happen-before the goroutine that Dones, or Wait can observe
// a zero counter and return while work is still being spawned. Three
// rules, all of which the compass worker pool obeys and the batched
// session scheduler will need:
//
//  1. Add before the spawning go: a go statement whose goroutine calls
//     Done on a WaitGroup — in its func literal, or through a named
//     function that Dones a WaitGroup argument — must be preceded
//     (lexically, in the same function) by an Add on that WaitGroup.
//     Calls to helpers that themselves spawn Done-ing goroutines count as
//     the spawn site.
//  2. No Add from inside a waited goroutine: an Add racing a Wait is the
//     canonical WaitGroup bug — Wait may have already returned.
//  3. No Wait-reuse overlap: a goroutine that Waits while the spawning
//     function keeps Adding afterwards overlaps two uses of the counter.
//
// A Done inside a `for … range ch` loop answers one message, not the spawn:
// the compass pool worker Dones once per phase it is sent, and the Add
// belongs before the send. Such per-message Dones are outside rule 1 and
// outside the summaries.
//
// WaitGroups are identified by expression path, by resolved sync.WaitGroup
// type where type info reaches, and by *sync.WaitGroup parameter syntax in
// helper signatures — so the interprocedural rules work in fixture and
// stub contexts alike.
func WgSafe() *Analyzer {
	summaries := map[*Program]*wgSummaries{}
	return &Analyzer{
		Name:     "wgsafe",
		Doc:      "enforce the WaitGroup protocol: Add before the spawning go, no Add inside waited goroutines, no Wait-reuse overlap",
		Packages: ConcurrencyPackages,
		Run: func(pkg *Package, report ReportFunc) {
			prog := pkg.Prog
			if prog == nil {
				return
			}
			sums, ok := summaries[prog]
			if !ok {
				sums = newWgSummaries(prog)
				summaries[prog] = sums
			}
			prog.Funcs(pkg, func(n *FuncNode) { checkWgFunc(pkg, prog, sums, n, report) })
		},
	}
}

// wgUse is one statement-position WaitGroup method call.
type wgUse struct {
	path   string // expression path of the WaitGroup ("wg", "s.wg")
	op     string // Add, Done, Wait
	pos    token.Pos
	inGo   bool // lexically inside a go-spawned func literal
	perMsg bool // lexically inside a range loop over a channel
}

// collectWgUses gathers the statement-position Add/Done/Wait calls of one
// body. Done and Wait are only meaningful as statements (ctx.Done() used
// as a channel operand is not a WaitGroup Done); Add must carry exactly
// one argument.
func collectWgUses(pkg *Package, body *ast.BlockStmt) []wgUse {
	var uses []wgUse
	var walk func(n ast.Node, inGo, perMsg bool)
	record := func(call *ast.CallExpr, inGo, perMsg bool) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		op := sel.Sel.Name
		switch op {
		case "Add":
			if len(call.Args) != 1 {
				return false
			}
		case "Done", "Wait":
			if len(call.Args) != 0 {
				return false
			}
		default:
			return false
		}
		path := exprPath(sel.X)
		if path == "" {
			return false
		}
		uses = append(uses, wgUse{path: path, op: op, pos: call.Pos(), inGo: inGo, perMsg: perMsg})
		return true
	}
	walk = func(n ast.Node, inGo, perMsg bool) {
		ast.Inspect(n, func(node ast.Node) bool {
			switch x := node.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok && record(call, inGo, perMsg) {
					return false
				}
			case *ast.DeferStmt:
				if record(x.Call, inGo, perMsg) {
					return false
				}
			case *ast.GoStmt:
				for _, a := range x.Call.Args {
					walk(a, inGo, perMsg)
				}
				if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
					walk(fl.Body, true, false)
				}
				return false
			case *ast.RangeStmt:
				if isChanExpr(pkg, x.X) {
					walk(x.Body, inGo, true)
					return false
				}
			}
			return true
		})
	}
	walk(body, false, false)
	return uses
}

// wgSummary records how one function interacts with WaitGroups it does
// not own: parameters and receiver fields it Dones synchronously, and
// ones it spawns goroutines to Done.
type wgSummary struct {
	syncDoneParams map[int]bool
	goDoneParams   map[int]bool
	syncDoneFields map[string]bool
	goDoneFields   map[string]bool
}

func (s *wgSummary) empty() bool {
	return len(s.syncDoneParams) == 0 && len(s.goDoneParams) == 0 &&
		len(s.syncDoneFields) == 0 && len(s.goDoneFields) == 0
}

// wgSummaries memoizes per-function WaitGroup summaries over one program.
type wgSummaries struct {
	prog *Program
	memo map[*FuncNode]*wgSummary
}

func newWgSummaries(prog *Program) *wgSummaries {
	return &wgSummaries{prog: prog, memo: map[*FuncNode]*wgSummary{}}
}

// wgParams maps parameter names of fn that are (syntactically or by type)
// *sync.WaitGroup to their indices.
func wgParams(pkg *Package, fd *ast.FuncDecl) map[string]int {
	out := map[string]int{}
	file := fileOf(pkg, fd.Pos())
	idx := 0
	for _, field := range fd.Type.Params.List {
		isWG := isWaitGroupPtrType(pkg, file, field.Type)
		for _, name := range field.Names {
			if isWG {
				out[name.Name] = idx
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return out
}

// isWaitGroupPtrType reports whether an AST type is *sync.WaitGroup,
// syntactically (works under stubbed imports) or via type info.
func isWaitGroupPtrType(pkg *Package, file *ast.File, t ast.Expr) bool {
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return false
	}
	if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "WaitGroup" {
		if id, ok := sel.X.(*ast.Ident); ok && file != nil && id.Name == importedName(file, "sync") {
			return true
		}
	}
	return false
}

// recvName returns the receiver's identifier name, or "".
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// summary computes (memoized, cycle-guarded) fn's WaitGroup summary: which
// WaitGroup parameters / receiver fields it Dones, synchronously or on a
// goroutine it spawns. Calls propagate: passing a WaitGroup parameter to a
// helper inherits the helper's behavior for it, one level deeper per edge.
func (s *wgSummaries) summary(n *FuncNode, visiting map[*FuncNode]bool) *wgSummary {
	if got, ok := s.memo[n]; ok {
		return got
	}
	sum := &wgSummary{
		syncDoneParams: map[int]bool{}, goDoneParams: map[int]bool{},
		syncDoneFields: map[string]bool{}, goDoneFields: map[string]bool{},
	}
	if visiting[n] {
		return sum
	}
	visiting[n] = true
	defer delete(visiting, n)

	pkg := n.Pkg
	params := wgParams(pkg, n.Decl)
	recv := recvName(n.Decl)
	classify := func(path string) (paramIdx int, field string, ok bool) {
		if idx, isParam := params[path]; isParam {
			return idx, "", true
		}
		if recv != "" {
			if rest, isRecv := strings.CutPrefix(path, recv+"."); isRecv && !strings.Contains(rest, ".") {
				return 0, rest, true
			}
		}
		return 0, "", false
	}
	// A function that Adds a WaitGroup itself (outside any goroutine) is
	// internally balanced for it — a fork-join that does Add(1)/go/Done/Wait
	// itself. Its Dones are not the caller's debt, so they do not export
	// into the summary; nor do per-message Dones.
	uses := collectWgUses(pkg, n.Decl.Body)
	selfAdds := map[string]bool{}
	for _, u := range uses {
		if u.op == "Add" && !u.inGo {
			selfAdds[u.path] = true
		}
	}
	for _, u := range uses {
		if u.op != "Done" || u.perMsg || selfAdds[u.path] {
			continue
		}
		idx, field, ok := classify(u.path)
		if !ok {
			continue
		}
		switch {
		case field == "" && u.inGo:
			sum.goDoneParams[idx] = true
		case field == "":
			sum.syncDoneParams[idx] = true
		case u.inGo:
			sum.goDoneFields[field] = true
		default:
			sum.syncDoneFields[field] = true
		}
	}
	// Propagate through calls: go'd edges turn the callee's synchronous
	// Dones into goroutine Dones of the caller; synchronous edges inherit
	// both kinds as they are.
	for _, e := range n.Calls {
		callee := s.prog.FuncAt(e.Callee)
		if callee == nil {
			continue
		}
		cs := s.summary(callee, visiting)
		if cs.empty() {
			continue
		}
		call := findCall(n.Decl.Body, e.Pos)
		if call == nil {
			continue
		}
		for calleeIdx := range mergeSets(cs.syncDoneParams, cs.goDoneParams) {
			if calleeIdx >= len(call.Args) {
				continue
			}
			path := wgArgPath(call.Args[calleeIdx])
			if path == "" || selfAdds[path] {
				continue
			}
			idx, field, ok := classify(path)
			if !ok {
				continue
			}
			async := e.InGo || cs.goDoneParams[calleeIdx]
			switch {
			case field == "" && async:
				sum.goDoneParams[idx] = true
			case field == "":
				sum.syncDoneParams[idx] = true
			case async:
				sum.goDoneFields[field] = true
			default:
				sum.syncDoneFields[field] = true
			}
		}
		// Method edges on the receiver's own fields: s.helper() where
		// helper Dones s.wg keeps the field association.
		if len(cs.syncDoneFields)+len(cs.goDoneFields) > 0 {
			if base := callReceiverPath(call); base != "" {
				if _, field, ok := classify(base + ".x"); ok && field == "x" {
					// base is the receiver itself (e.g. "s"): fields carry over.
					for f := range cs.syncDoneFields {
						if selfAdds[base+"."+f] {
							continue
						}
						if e.InGo {
							sum.goDoneFields[f] = true
						} else {
							sum.syncDoneFields[f] = true
						}
					}
					for f := range cs.goDoneFields {
						if selfAdds[base+"."+f] {
							continue
						}
						sum.goDoneFields[f] = true
					}
				}
			}
		}
	}
	if len(visiting) == 1 {
		s.memo[n] = sum
	}
	return sum
}

// mergeSets unions two int sets.
func mergeSets(a, b map[int]bool) map[int]bool {
	out := map[int]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// findCall locates the call expression at pos inside body.
func findCall(body *ast.BlockStmt, pos token.Pos) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() == pos {
			found = call
			return false
		}
		return true
	})
	return found
}

// wgArgPath extracts the WaitGroup expression path from a call argument,
// unwrapping a leading &.
func wgArgPath(arg ast.Expr) string {
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = u.X
	}
	return exprPath(arg)
}

// callReceiverPath returns the path of the receiver of a method call
// ("s" for s.helper()), or "".
func callReceiverPath(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return exprPath(sel.X)
}

// checkWgFunc applies the three rules to one function.
func checkWgFunc(pkg *Package, prog *Program, sums *wgSummaries, n *FuncNode, report ReportFunc) {
	uses := collectWgUses(pkg, n.Decl.Body)

	// Candidate WaitGroup paths: seen with two distinct operations (Add
	// and Done/Wait — a lone .Add() could be a metrics counter), or
	// type-resolved to sync.WaitGroup.
	opsByPath := map[string]map[string]bool{}
	for _, u := range uses {
		if opsByPath[u.path] == nil {
			opsByPath[u.path] = map[string]bool{}
		}
		opsByPath[u.path][u.op] = true
	}
	candidate := func(path string) bool {
		ops := opsByPath[path]
		if ops["Done"] && (ops["Add"] || ops["Wait"]) {
			return true
		}
		if ops["Add"] && ops["Wait"] {
			return true
		}
		return false
	}

	addsBefore := func(path string, pos token.Pos) bool {
		for _, u := range uses {
			if u.op == "Add" && u.path == path && !u.inGo && u.pos < pos {
				return true
			}
		}
		return false
	}
	addsAfter := func(path string, pos token.Pos) bool {
		for _, u := range uses {
			if u.op == "Add" && u.path == path && !u.inGo && u.pos > pos {
				return true
			}
		}
		return false
	}

	// Rules 1 and 3 hang off go statements; rule 1 additionally off calls
	// to helpers that spawn Done-ing goroutines.
	edges := map[token.Pos]CallEdge{}
	for _, e := range n.Calls {
		edges[e.Pos] = e
	}
	seen := map[token.Pos]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			for _, path := range goDoneTargets(pkg, prog, sums, n, x, candidate) {
				if !addsBefore(path, x.Pos()) {
					report(x.Pos(), "goroutine calls %s.Done but no %s.Add precedes the go statement; Add must happen-before the spawn or Wait can return early", path, path)
				}
			}
			if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
				for _, u := range collectWgUses(pkg, fl.Body) {
					switch u.op {
					case "Wait":
						if addsAfter(u.path, x.Pos()) && (candidate(u.path) || isWaitGroupExprAt(pkg, fl.Body, u)) {
							report(x.Pos(), "goroutine calls %s.Wait while %s.Add continues after the go statement; overlapping uses of a WaitGroup race the counter", u.path, u.path)
						}
					case "Add":
						if candidate(u.path) || isWaitGroupExprAt(pkg, fl.Body, u) {
							report(u.pos, "%s.Add from inside a spawned goroutine races Wait; hoist the Add before the go statement", u.path)
						}
					}
				}
			}
			seen[x.Call.Pos()] = true
		case *ast.CallExpr:
			e, ok := edges[x.Pos()]
			if !ok || e.InGo || seen[x.Pos()] {
				return true
			}
			callee := prog.FuncAt(e.Callee)
			if callee == nil {
				return true
			}
			cs := sums.summary(callee, map[*FuncNode]bool{})
			for calleeIdx := range cs.goDoneParams {
				if calleeIdx >= len(x.Args) {
					continue
				}
				path := wgArgPath(x.Args[calleeIdx])
				if path == "" {
					continue
				}
				if !addsBefore(path, x.Pos()) {
					report(x.Pos(), "call to %s spawns a goroutine that calls %s.Done, but no %s.Add precedes the call; Add must happen-before the spawn", e.Name, path, path)
				}
			}
			if len(cs.goDoneFields) > 0 {
				if base := callReceiverPath(x); base != "" {
					for f := range cs.goDoneFields {
						path := base + "." + f
						if !addsBefore(path, x.Pos()) {
							report(x.Pos(), "call to %s spawns a goroutine that calls %s.Done, but no %s.Add precedes the call; Add must happen-before the spawn", e.Name, path, path)
						}
					}
				}
			}
		}
		return true
	})
}

// goDoneTargets lists the WaitGroup paths the goroutine spawned by one go
// statement will Done: direct statement Dones in its func literal,
// synchronous Dones of helpers the literal calls with a WaitGroup, or —
// for `go f(&wg)` — f's synchronous and spawned Dones both (either way
// the Done happens after the spawn). Direct Dones count only when the path
// is a WaitGroup candidate (two-operation heuristic or resolved type) —
// span.Done()-style finalizers are not WaitGroup protocol. Summary-derived
// Dones are already established as WaitGroups by the helper's signature.
func goDoneTargets(pkg *Package, prog *Program, sums *wgSummaries, n *FuncNode, g *ast.GoStmt, candidate func(string) bool) []string {
	targets := map[string]bool{}
	addFromSummary := func(call *ast.CallExpr, cs *wgSummary, includeGo bool) {
		idxs := cs.syncDoneParams
		if includeGo {
			idxs = mergeSets(cs.syncDoneParams, cs.goDoneParams)
		}
		for calleeIdx := range idxs {
			if calleeIdx >= len(call.Args) {
				continue
			}
			if path := wgArgPath(call.Args[calleeIdx]); path != "" {
				targets[path] = true
			}
		}
		fields := cs.syncDoneFields
		if includeGo {
			fields = map[string]bool{}
			for f := range cs.syncDoneFields {
				fields[f] = true
			}
			for f := range cs.goDoneFields {
				fields[f] = true
			}
		}
		if len(fields) > 0 {
			if base := callReceiverPath(call); base != "" {
				for f := range fields {
					targets[base+"."+f] = true
				}
			}
		}
	}

	edges := map[token.Pos]CallEdge{}
	for _, e := range n.Calls {
		edges[e.Pos] = e
	}
	if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
		for _, u := range collectWgUses(pkg, fl.Body) {
			if u.op == "Done" && !u.inGo && !u.perMsg && (candidate(u.path) || isWaitGroupExprAt(pkg, fl.Body, u)) {
				targets[u.path] = true
			}
		}
		ast.Inspect(fl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if e, isEdge := edges[call.Pos()]; isEdge {
				if callee := prog.FuncAt(e.Callee); callee != nil {
					addFromSummary(call, sums.summary(callee, map[*FuncNode]bool{}), false)
				}
			}
			return true
		})
	} else if e, isEdge := edges[g.Call.Pos()]; isEdge {
		if callee := prog.FuncAt(e.Callee); callee != nil {
			addFromSummary(g.Call, sums.summary(callee, map[*FuncNode]bool{}), true)
		}
	}
	out := make([]string, 0, len(targets))
	for t := range targets {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// isWaitGroupExprAt reports whether the use's WaitGroup expression
// resolves to sync.WaitGroup by type — the fallback candidacy signal when
// the two-operation heuristic cannot fire (a lone Add or Wait).
func isWaitGroupExprAt(pkg *Package, body *ast.BlockStmt, u wgUse) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() != u.pos {
			return true
		}
		if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
			if named := namedTypeOf(pkg.TypeOf(sel.X)); named != nil && named.Obj() != nil {
				if named.Obj().Name() == "WaitGroup" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
					found = true
				}
			}
		}
		return false
	})
	return found
}
