package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// BoundConvPackages are the trust-boundary packages boundconv gates: the
// HTTP serving surface (JSON bodies, query and path parameters) and the
// AER stream codec (files and network peers). Helpers they call anywhere
// in the module are covered through call-graph summaries.
var BoundConvPackages = []string{
	Module + "/internal/serve",
	Module + "/internal/spikeio",
}

// BoundConv returns the trust-boundary conversion-taint analyzer. A
// client-controlled integer — a field of a JSON-decoded request struct, or
// a strconv.Atoi/ParseInt/ParseUint result on a query or path parameter —
// must pass a range guard before it reaches one of the conversion-shaped
// sinks that turned into real bugs in this repo's history (the StartUntil
// relative-tick overflow, the handleRun and Replay delay wraps):
//
//   - a narrowing or sign-changing integer conversion (uint64→int,
//     int→int32, int→uint32, ...), where an overlarge or negative value
//     silently wraps or aliases;
//   - arithmetic (+, -, *) producing a uint64 — tick math, where a wrap
//     turns a far-future target into an immediate or unbounded one;
//   - a make() size or capacity argument — client-sized allocations.
//
// A guard is an ordered comparison (<, <=, >, >=) mentioning the value (or
// the exact field path) earlier in the same function, or passing the value
// (or its root) through a function whose name contains valid/check/verify
// — the repo's validator idiom (Params.Validate, Engine.InjectChecked). The
// analysis is call-graph aware: per-function summaries record which
// parameters flow unguarded into a sink, so taint reaching a conversion
// through a helper (even in another package) is reported at the
// trust-boundary call site with the witness chain. Results of
// strconv.ParseInt/ParseUint carry their bitSize as a bound: converting to
// a type at least that wide (with compatible signedness) is not a finding.
func BoundConv() *Analyzer {
	sums := map[*Program]*convSummaries{}
	return &Analyzer{
		Name:     "boundconv",
		Doc:      "client-controlled integers need a range guard before narrowing conversions, tick arithmetic, or make() sizing",
		Packages: BoundConvPackages,
		Run: func(pkg *Package, report ReportFunc) {
			prog := pkg.Prog
			if prog == nil {
				return
			}
			cs, ok := sums[prog]
			if !ok {
				cs = &convSummaries{prog: prog, memo: map[*FuncNode]map[int]*convSink{}}
				sums[prog] = cs
			}
			prog.Funcs(pkg, func(n *FuncNode) {
				seen := map[string]bool{}
				sc := &convScan{
					pkg:  pkg,
					sums: cs,
					node: n,
					onHit: func(pos token.Pos, tv *taintVal, sink string, chain []CallEdge, hazPos token.Pos) {
						msg := renderConvHit(pkg.Fset, tv, sink, chain, hazPos)
						key := fmt.Sprintf("%d:%s", pos, msg)
						if seen[key] {
							return
						}
						seen[key] = true
						report(pos, "%s", msg)
					},
				}
				sc.run(n.Decl, false)
			})
		},
	}
}

// renderConvHit formats one finding: the tainted value, its provenance,
// the sink, and — for interprocedural hits — the witness call chain with
// the hazard's file:line, mirroring Taint.Describe.
func renderConvHit(fset *token.FileSet, tv *taintVal, sink string, chain []CallEdge, hazPos token.Pos) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "client-controlled %s (%s) reaches %s without a range guard", tv.path, tv.src, sink)
	if len(chain) > 0 {
		sb.WriteString(" via ")
		for i, e := range chain {
			if i > 0 {
				sb.WriteString(" → ")
			}
			sb.WriteString(e.Name)
		}
		pos := fset.Position(hazPos)
		fmt.Fprintf(&sb, " (%s:%d)", filepath.Base(pos.Filename), pos.Line)
	}
	return sb.String()
}

// taintVal tracks one client-controlled root: the identifier (or derived
// value) a taint source produced.
type taintVal struct {
	path string // rendered expression path, for messages and guard matching
	src  string // provenance for messages ("strconv.Atoi result", "JSON request body")
	// param is the index of the function parameter this value derives
	// from in summary mode, -1 otherwise.
	param int
	// guarded marks the whole root as range-checked; guardedPaths marks
	// individual field paths ("e.Tick") as checked.
	guarded      bool
	guardedPaths map[string]bool
	// bits/signedBound bound the value when the source guarantees a range
	// (strconv.ParseInt/ParseUint with a literal bitSize): bits is the
	// bitSize, signedBound whether the bound is signed. 0 = unbounded.
	bits        int
	signedBound bool
}

func (tv *taintVal) guardedAt(path string) bool {
	return tv.guarded || tv.guardedPaths[path]
}

func (tv *taintVal) markGuarded(path string) {
	if path == tv.path || path == "" {
		tv.guarded = true
		return
	}
	if tv.guardedPaths == nil {
		tv.guardedPaths = map[string]bool{}
	}
	tv.guardedPaths[path] = true
}

// derive builds the taint record of a value assigned from path of tv.
func (tv *taintVal) derive(newPath string, srcPath string) *taintVal {
	return &taintVal{
		path:        newPath,
		src:         tv.src,
		param:       tv.param,
		guarded:     tv.guardedAt(srcPath),
		bits:        tv.bits,
		signedBound: tv.signedBound,
	}
}

// convSink is one summary entry: a function parameter that flows unguarded
// into a sink inside the function (or transitively through its callees).
type convSink struct {
	pos   token.Pos // the hazard position (innermost sink)
	sink  string    // sink description
	chain []CallEdge
}

// convSummaries memoizes per-function parameter→sink summaries over one
// program, computed with the same body walker the direct analysis uses but
// with parameters as the taint roots.
type convSummaries struct {
	prog *Program
	memo map[*FuncNode]map[int]*convSink
}

// summary returns n's parameter→sink map. Cycles in the call graph
// conservatively stop the recursion (same rule as lockorder.acquires).
func (cs *convSummaries) summary(n *FuncNode, visiting map[*FuncNode]bool) map[int]*convSink {
	if got, ok := cs.memo[n]; ok {
		return got
	}
	if visiting[n] {
		return nil
	}
	visiting[n] = true
	defer delete(visiting, n)

	out := map[int]*convSink{}
	sc := &convScan{
		pkg:      n.Pkg,
		sums:     cs,
		node:     n,
		visiting: visiting,
		onHit: func(pos token.Pos, tv *taintVal, sink string, chain []CallEdge, hazPos token.Pos) {
			if tv.param < 0 {
				return
			}
			if old, ok := out[tv.param]; !ok || hazPos < old.pos {
				out[tv.param] = &convSink{pos: hazPos, sink: sink, chain: chain}
			}
		},
	}
	sc.run(n.Decl, true)
	if len(visiting) == 1 {
		// Memoize only at the outermost frame: inner results computed
		// under a cycle guard may be incomplete.
		cs.memo[n] = out
	}
	return out
}

// convScan walks one function body in source order, tracking client-integer
// taint through assignments and range statements, recording guards, and
// firing onHit at every unguarded sink.
type convScan struct {
	pkg      *Package
	sums     *convSummaries
	node     *FuncNode
	visiting map[*FuncNode]bool // non-nil in summary mode
	onHit    func(pos token.Pos, tv *taintVal, sink string, chain []CallEdge, hazPos token.Pos)

	taints   map[types.Object]*taintVal
	decoders map[types.Object]bool // objects holding a *json.Decoder
}

// run analyzes fd. In summary mode (asSummary), the function's own
// parameters are the taint roots; otherwise taint enters only through the
// in-body sources (strconv parses and JSON decodes).
func (sc *convScan) run(fd *ast.FuncDecl, asSummary bool) {
	sc.taints = map[types.Object]*taintVal{}
	sc.decoders = map[types.Object]bool{}
	if asSummary && fd.Type.Params != nil {
		idx := 0
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := sc.defOf(name); obj != nil {
					sc.taints[obj] = &taintVal{path: name.Name, src: "parameter", param: idx}
				}
				idx++
			}
		}
	}
	if fd.Body != nil {
		sc.walk(fd.Body)
	}
}

func (sc *convScan) defOf(id *ast.Ident) types.Object {
	if sc.pkg.Info == nil {
		return nil
	}
	return sc.pkg.Info.Defs[id]
}

func (sc *convScan) objOf(id *ast.Ident) types.Object {
	if sc.pkg.Info == nil {
		return nil
	}
	if obj := sc.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return sc.pkg.Info.Defs[id]
}

// rootOf resolves an expression to its root identifier's object, so that
// selector chains and index expressions inherit their base's taint.
func rootOf(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// taintOf returns the taint record of e's root (nil when untainted) and
// e's rendered path for guard matching. Arithmetic expressions carry the
// taint of their first tainted operand.
func (sc *convScan) taintOf(e ast.Expr) (*taintVal, string) {
	if b, ok := ast.Unparen(e).(*ast.BinaryExpr); ok {
		if tv, p := sc.taintOf(b.X); tv != nil {
			return tv, p
		}
		return sc.taintOf(b.Y)
	}
	id := rootOf(e)
	if id == nil {
		return nil, ""
	}
	obj := sc.objOf(id)
	if obj == nil {
		return nil, ""
	}
	tv := sc.taints[obj]
	if tv == nil {
		return nil, ""
	}
	path := exprPath(ast.Unparen(e))
	if path == "" {
		path = id.Name
	}
	return tv, path
}

// walk dispatches the source-order traversal.
func (sc *convScan) walk(root ast.Node) {
	ast.Inspect(root, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			sc.assign(x)
		case *ast.RangeStmt:
			sc.rangeStmt(x)
		case *ast.BinaryExpr:
			sc.binary(x)
		case *ast.CallExpr:
			sc.call(x)
		case *ast.FuncLit:
			// Closures share the enclosing scope; keep walking so taint and
			// guards inside them are tracked with the same state.
			return true
		}
		return true
	})
}

// assign applies taint kills and propagation for one assignment.
func (sc *convScan) assign(a *ast.AssignStmt) {
	// Multi-value call on the RHS: `n, err := strconv.Atoi(v)`.
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			if src, bits, signed := sc.parseSource(call); src != "" {
				if id, ok := a.Lhs[0].(*ast.Ident); ok {
					if obj := sc.objOf(id); obj != nil {
						sc.taints[obj] = &taintVal{path: id.Name, src: src, param: -1, bits: bits, signedBound: signed}
					}
				}
				return
			}
			// Results of other calls are not tainted; kill stale taint on
			// the reassigned names.
			for _, lhs := range a.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := sc.objOf(id); obj != nil {
						delete(sc.taints, obj)
					}
				}
			}
			return
		}
	}
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i, lhs := range a.Lhs {
		rhs := ast.Unparen(a.Rhs[i])
		if call, ok := rhs.(*ast.CallExpr); ok {
			// Single-value source call, decoder construction, a type
			// conversion of a tainted value (the converted value is still
			// client-controlled, now bounded by the destination width), or
			// an ordinary call result (untainted).
			if id, ok := lhs.(*ast.Ident); ok {
				obj := sc.objOf(id)
				if obj == nil {
					continue
				}
				if src, bits, signed := sc.parseSource(call); src != "" {
					sc.taints[obj] = &taintVal{path: id.Name, src: src, param: -1, bits: bits, signedBound: signed}
				} else if path, fn, ok := pkgCall(sc.pkg, call); ok && path == "encoding/json" && fn == "NewDecoder" {
					sc.decoders[obj] = true
				} else if ntv := sc.conversionTaint(call, id.Name); ntv != nil {
					sc.taints[obj] = ntv
				} else {
					delete(sc.taints, obj)
				}
			}
			continue
		}
		tv, srcPath := sc.taintOf(rhs)
		switch target := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := sc.objOf(target)
			if obj == nil {
				continue
			}
			if tv != nil {
				sc.taints[obj] = tv.derive(target.Name, srcPath)
			} else {
				delete(sc.taints, obj)
			}
		default:
			// Writing a tainted value into a field or element taints the
			// container's root (events[i] = Event{...tainted...}).
			if tv == nil {
				// Also catch composite literals holding tainted values.
				if !sc.exprCarriesTaint(rhs) {
					continue
				}
				tv, srcPath = sc.compositeTaint(rhs)
				if tv == nil {
					continue
				}
			}
			if rootID := rootOf(lhs); rootID != nil {
				if obj := sc.objOf(rootID); obj != nil {
					if _, already := sc.taints[obj]; !already {
						sc.taints[obj] = tv.derive(rootID.Name, srcPath)
					}
				}
			}
		}
	}
}

// exprCarriesTaint reports whether any subexpression of e is tainted —
// the composite-literal propagation test.
func (sc *convScan) exprCarriesTaint(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := sc.objOf(id); obj != nil && sc.taints[obj] != nil {
				found = true
			}
		}
		return true
	})
	return found
}

// compositeTaint returns the first taint record found inside e.
func (sc *convScan) compositeTaint(e ast.Expr) (*taintVal, string) {
	var tv *taintVal
	var path string
	ast.Inspect(e, func(n ast.Node) bool {
		if tv != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := sc.objOf(id); obj != nil && sc.taints[obj] != nil {
				tv, path = sc.taints[obj], id.Name
			}
		}
		return true
	})
	return tv, path
}

// rangeStmt taints the iteration value (and map key) when ranging over a
// tainted collection.
func (sc *convScan) rangeStmt(r *ast.RangeStmt) {
	tv, srcPath := sc.taintOf(r.X)
	if tv == nil {
		return
	}
	taintIdent := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := sc.objOf(id); obj != nil {
			sc.taints[obj] = tv.derive(id.Name, srcPath)
		}
	}
	if r.Value != nil {
		taintIdent(r.Value)
	}
	// The key is client data too when ranging over a map; for slices it is
	// a dense index and stays clean.
	if r.Key != nil && sc.pkg.Info != nil {
		if t := sc.pkg.TypeOf(r.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				taintIdent(r.Key)
			}
		}
	}
}

// binary records guards from ordered comparisons and reports tick
// arithmetic on tainted operands.
func (sc *convScan) binary(b *ast.BinaryExpr) {
	switch b.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		for _, op := range []ast.Expr{b.X, b.Y} {
			if tv, path := sc.taintOf(op); tv != nil {
				tv.markGuarded(path)
			}
		}
	case token.ADD, token.SUB, token.MUL:
		t := sc.pkg.TypeOf(b)
		if t == nil {
			return
		}
		basic, ok := t.Underlying().(*types.Basic)
		if !ok || basic.Kind() != types.Uint64 {
			return
		}
		for _, op := range []ast.Expr{b.X, b.Y} {
			if tv, path := sc.taintOf(op); tv != nil && !tv.guardedAt(path) {
				sc.onHit(op.Pos(), tv, "uint64 tick arithmetic (a wrap moves the target)", nil, op.Pos())
			}
		}
	}
}

// call handles every call-shaped event: taint sources, decoder taint
// writers, validator guards, conversion and make sinks, and summary
// propagation into callees.
func (sc *convScan) call(call *ast.CallExpr) {
	// Type conversion sink: T(v).
	if _, isConv := sc.conversionSink(call); isConv {
		return // reported (or proven safe) inside conversionSink
	}

	// make(T, n[, m]) sink.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" && len(call.Args) >= 2 {
		if _, isBuiltin := sc.objOf(id).(*types.Builtin); isBuiltin || sc.objOf(id) == nil {
			for _, arg := range call.Args[1:] {
				if tv, path := sc.taintOf(arg); tv != nil && !tv.guardedAt(path) {
					sc.onHit(arg.Pos(), tv, "a make() size/capacity (client-sized allocation)", nil, arg.Pos())
				}
			}
			return
		}
	}

	// JSON decode taint writers: json.Unmarshal(b, &v), dec.Decode(&v)
	// on a json.NewDecoder, and module-local helpers that forward a
	// pointer parameter to one of those (decodeBody).
	if sc.decodeTarget(call) {
		return
	}

	// Validator guard: passing a tainted value (or its root) to a
	// function whose name contains valid/check/verify range-checks it.
	calleeName := callName(call)
	if isValidatorName(calleeName) {
		sc.guardArgs(call)
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isValidatorName(sel.Sel.Name) {
		// Method form: v.Validate() guards the receiver.
		if tv, path := sc.taintOf(sel.X); tv != nil {
			tv.markGuarded(path)
		}
		sc.guardArgs(call)
		return
	}

	// Interprocedural: a tainted, unguarded argument whose callee summary
	// says the parameter reaches a sink.
	sc.propagate(call)
}

// guardArgs marks every tainted argument of a validator call guarded.
func (sc *convScan) guardArgs(call *ast.CallExpr) {
	for _, arg := range call.Args {
		if tv, path := sc.taintOf(arg); tv != nil {
			tv.markGuarded(path)
		}
	}
}

// callName renders the called function's bare name.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isValidatorName matches the repo's validator idiom.
func isValidatorName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "valid") || strings.Contains(l, "check") || strings.Contains(l, "verify")
}

// parseSource recognizes strconv parse calls and returns the provenance
// string plus the bitSize bound ParseInt/ParseUint guarantee (0 when
// unbounded).
func (sc *convScan) parseSource(call *ast.CallExpr) (src string, bits int, signed bool) {
	path, fn, ok := pkgCall(sc.pkg, call)
	if !ok || path != "strconv" {
		return "", 0, false
	}
	switch fn {
	case "Atoi":
		return "strconv.Atoi result", 0, true
	case "ParseInt", "ParseUint":
		bits := 0
		if len(call.Args) == 3 {
			if lit, ok := ast.Unparen(call.Args[2]).(*ast.BasicLit); ok && lit.Kind == token.INT {
				if n, err := strconv.Atoi(lit.Value); err == nil {
					bits = n
				}
			}
		}
		return "strconv." + fn + " result", bits, fn == "ParseInt"
	}
	return "", 0, false
}

// decodeTarget recognizes JSON-decode calls and taints the pointed-to
// value: json.Unmarshal(b, &v), (json.NewDecoder(...)).Decode(&v),
// dec.Decode(&v) for a tracked decoder, and module-local helpers whose
// summary marks a pointer parameter as a decode output.
func (sc *convScan) decodeTarget(call *ast.CallExpr) bool {
	taintPtrArg := func(arg ast.Expr) bool {
		un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			return false
		}
		id := rootOf(un.X)
		if id == nil {
			return false
		}
		obj := sc.objOf(id)
		if obj == nil {
			return false
		}
		sc.taints[obj] = &taintVal{path: id.Name, src: "JSON request body", param: -1}
		return true
	}
	if path, fn, ok := pkgCall(sc.pkg, call); ok && path == "encoding/json" && fn == "Unmarshal" && len(call.Args) == 2 {
		return taintPtrArg(call.Args[1])
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Decode" && len(call.Args) == 1 {
		if inner, ok := ast.Unparen(sel.X).(*ast.CallExpr); ok {
			if path, fn, ok := pkgCall(sc.pkg, inner); ok && path == "encoding/json" && fn == "NewDecoder" {
				return taintPtrArg(call.Args[0])
			}
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if obj := sc.objOf(id); obj != nil && sc.decoders[obj] {
				return taintPtrArg(call.Args[0])
			}
		}
	}
	// Module-local decode helpers: any call edge whose callee's decode-out
	// summary marks parameter i taints a pointer argument at i.
	if sc.sums != nil && sc.sums.prog != nil {
		prog := sc.sums.prog
		if fn, _, ok := calleeFunc(sc.pkg, call); ok {
			if callee := prog.FuncAt(fn.Pos()); callee != nil {
				outs := decodeOutParams(prog, callee, map[*FuncNode]bool{})
				hit := false
				for i := range call.Args {
					if outs[i] && i < len(call.Args) && taintPtrArg(call.Args[i]) {
						hit = true
					}
				}
				if hit {
					return true
				}
			}
		}
	}
	return false
}

// decodeOutParams reports which parameters of n are JSON-decode outputs:
// the parameter is passed (directly, or through another decode helper) as
// the decode target of a json Unmarshal/Decode call.
func decodeOutParams(prog *Program, n *FuncNode, visiting map[*FuncNode]bool) map[int]bool {
	if visiting[n] {
		return nil
	}
	visiting[n] = true
	defer delete(visiting, n)

	params := map[types.Object]int{}
	idx := 0
	if n.Decl.Type.Params != nil {
		for _, field := range n.Decl.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if n.Pkg.Info != nil {
					if obj := n.Pkg.Info.Defs[name]; obj != nil {
						params[obj] = idx
					}
				}
				idx++
			}
		}
	}
	out := map[int]bool{}
	mark := func(e ast.Expr) {
		id := rootOf(e)
		if id == nil || n.Pkg.Info == nil {
			return
		}
		if obj := n.Pkg.Info.Uses[id]; obj != nil {
			if i, ok := params[obj]; ok {
				out[i] = true
			}
		}
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, fn, ok := pkgCall(n.Pkg, call); ok && path == "encoding/json" && fn == "Unmarshal" && len(call.Args) == 2 {
			mark(call.Args[1])
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Decode" && len(call.Args) == 1 {
			mark(call.Args[0])
			return true
		}
		// Forwarding through another local decode helper.
		if fn, _, ok := calleeFunc(n.Pkg, call); ok {
			if callee := prog.FuncAt(fn.Pos()); callee != nil && callee != n {
				sub := decodeOutParams(prog, callee, visiting)
				for i := range call.Args {
					if sub[i] {
						mark(call.Args[i])
					}
				}
			}
		}
		return true
	})
	return out
}

// conversionSink checks a type-conversion expression T(v). Returns
// (reported, isConversion).
func (sc *convScan) conversionSink(call *ast.CallExpr) (bool, bool) {
	if sc.pkg.Info == nil || len(call.Args) != 1 {
		return false, false
	}
	tval, ok := sc.pkg.Info.Types[call.Fun]
	if !ok || !tval.IsType() {
		return false, false
	}
	dst, dok := basicInt(tval.Type)
	if !dok {
		return false, true
	}
	arg := call.Args[0]
	tv, path := sc.taintOf(arg)
	if tv == nil || tv.guardedAt(path) {
		return false, true
	}
	// The argument's type: a known integer, or unresolved (Invalid) when
	// the value came through a stubbed stdlib call (strconv results) — the
	// taint record still knows its provenance and any bitSize bound.
	var src *types.Basic
	if srcType := sc.pkg.TypeOf(arg); srcType != nil {
		if s, ok := basicInt(srcType); ok {
			src = s
		} else if b, ok := srcType.Underlying().(*types.Basic); !ok || b.Kind() != types.Invalid {
			return false, true // a resolved non-integer: not an integer conversion
		}
	}
	if convSafe(src, dst, tv) {
		return false, true
	}
	srcName := "parsed integer"
	if src != nil {
		srcName = src.Name()
	}
	sc.onHit(arg.Pos(), tv,
		fmt.Sprintf("a %s → %s conversion (overflow wraps or aliases)", srcName, dst.Name()), nil, arg.Pos())
	return true, true
}

// conversionTaint returns the taint record for newName when call is an
// integer type conversion of a tainted value: the result stays
// client-controlled, bounded by the destination's width and signedness
// (the conversion itself was already judged by conversionSink).
func (sc *convScan) conversionTaint(call *ast.CallExpr, newName string) *taintVal {
	if sc.pkg.Info == nil || len(call.Args) != 1 {
		return nil
	}
	tval, ok := sc.pkg.Info.Types[call.Fun]
	if !ok || !tval.IsType() {
		return nil
	}
	dst, ok := basicInt(tval.Type)
	if !ok {
		return nil
	}
	tv, path := sc.taintOf(call.Args[0])
	if tv == nil {
		return nil
	}
	ntv := tv.derive(newName, path)
	ntv.bits, ntv.signedBound = intWidth(dst), intSigned(dst)
	return ntv
}

// basicInt returns t's basic integer form, following named types.
func basicInt(t types.Type) (*types.Basic, bool) {
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 || basic.Info()&types.IsUntyped != 0 {
		return nil, false
	}
	return basic, true
}

// intWidth is the bit width of a basic integer kind (64-bit platform
// assumptions for int/uint/uintptr, matching the serving hosts).
func intWidth(b *types.Basic) int {
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	default:
		return 64
	}
}

func intSigned(b *types.Basic) bool {
	switch b.Kind() {
	case types.Int, types.Int8, types.Int16, types.Int32, types.Int64:
		return true
	}
	return false
}

// convSafe reports whether converting a tv-tainted value from src to dst
// cannot wrap: widening with identical signedness, or a destination that
// covers the source's proven bitSize bound. src is nil when the source
// type is unresolved (stubbed stdlib); only the bitSize bound applies then.
func convSafe(src, dst *types.Basic, tv *taintVal) bool {
	if src != nil && intSigned(src) == intSigned(dst) && intWidth(dst) >= intWidth(src) {
		return true
	}
	if tv.bits > 0 {
		if intSigned(dst) == tv.signedBound && intWidth(dst) >= tv.bits {
			return true
		}
		// An unsigned bound of b bits fits any signed type wider than b.
		if intSigned(dst) && !tv.signedBound && intWidth(dst) > tv.bits {
			return true
		}
	}
	return false
}

// propagate consults the callee's parameter summary for each tainted,
// unguarded argument and reports the witness chain on a hit.
func (sc *convScan) propagate(call *ast.CallExpr) {
	if sc.sums == nil || sc.sums.prog == nil {
		return
	}
	prog := sc.sums.prog
	fn, _, ok := calleeFunc(sc.pkg, call)
	if !ok {
		return
	}
	callee := prog.FuncAt(fn.Pos())
	if callee == nil || callee.barrier() {
		return
	}
	visiting := sc.visiting
	if visiting == nil {
		visiting = map[*FuncNode]bool{}
	}
	sum := sc.sums.summary(callee, visiting)
	if len(sum) == 0 {
		return
	}
	for i, arg := range call.Args {
		entry, ok := sum[i]
		if !ok {
			continue
		}
		tv, path := sc.taintOf(arg)
		if tv == nil || tv.guardedAt(path) {
			continue
		}
		edge := CallEdge{Pos: call.Pos(), Callee: callee.Decl.Name.Pos(), Name: fn.Name()}
		chain := append([]CallEdge{edge}, entry.chain...)
		sc.onHit(arg.Pos(), tv, entry.sink, chain, entry.pos)
	}
}
