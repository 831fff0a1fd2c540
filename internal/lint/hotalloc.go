package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPackages hold the per-tick kernel hot path: the two engine
// expressions and the dispatch table they share (internal/sim), the core
// state machine, the neuron arithmetic, and the mesh router. Session pacing (internal/runtime) is deliberately outside this
// set — it owns the wall clock — but everything it calls per tick is in it.
var HotPackages = []string{
	Module + "/internal/chip",
	Module + "/internal/compass",
	Module + "/internal/core",
	Module + "/internal/neuron",
	Module + "/internal/router",
	Module + "/internal/sim",
}

// hotFuncNames are the functions that run every tick (or every spike, which
// is more often): the engine Step/Run loops and their spike-routing
// helpers, the core kernel phases, the neuron arithmetic, and the router's
// per-spike path computations. bfs and the pending-injection queue are
// deliberately absent: they are cold fallbacks (a blocked detour, a >15-tick
// injection) whose allocations are part of their design.
var hotFuncNames = map[string]bool{
	// engines
	"Step": true, "StepDense": true, "Run": true, "route": true,
	// core kernel
	"Deliver": true, "ForEach": true,
	// neuron arithmetic
	"Integrate": true, "ApplyLeak": true, "ThresholdFire": true,
	// router per-spike path
	"DOR": true, "RouteAvoiding": true, "greedyAvoid": true,
	"greedyStep": true, "dorStep": true,
}

// HotAlloc returns the hot-path allocation analyzer. The paper's real-time
// claim (f_max ≈ 1 kHz) holds only while the per-tick kernel stays off the
// garbage collector's ledger: a single allocation per spike turns into
// millions per wall-clock second at operating load, and the resulting GC
// pauses blow the tick deadline that pacing promises. Inside the hot
// functions of the kernel packages, hotalloc flags the Go constructs that
// reach the heap:
//
//  1. fmt (and log) calls — they allocate and box every operand into
//     interfaces; formatting belongs off the tick path.
//  2. make of a slice, map, or channel — a fresh allocation every tick.
//  3. slice/map composite literals and &composite expressions — the
//     literal escapes or reallocates per tick (plain struct/array value
//     literals are register/stack material and stay legal).
//  4. func literals declared inside a per-tick loop — one closure
//     allocation per iteration; hoist the closure above the loop.
//  5. append whose destination buffer is never reslice-reused — growth
//     that the GC must eventually collect. An append is sanctioned when
//     the package resets the same buffer with `buf = buf[:0]` somewhere
//     (the reuse idiom that amortizes to zero steady-state allocations);
//     local := and range-value aliases are resolved on both sides, so
//     `out := s.outbox[w]` inherits a reset written as `row[w] = msgs[:0]`
//     inside `for _, row := range s.outbox`.
//
// A go statement in a hot function is ticksafe's finding, not hotalloc's;
// the spawned body is still hot code and is checked here.
//
// The hot set is the named functions above plus any function carrying the
// //perf:hot directive (shared with the perfproof compiler gate), so the
// static and compiler-diagnostic gates watch the same code.
//
// When run with call-graph context (RunWithContext), hotalloc is also
// interprocedural: a hot function calling a helper that allocates — in this
// package or any other module package — is reported at the call site with
// the witness chain. Callees that are themselves hot are skipped (their own
// bodies are checked directly), and the sanctioned cold-path barriers (bfs,
// inject) stop propagation.
//
// hotalloc is deliberately conservative — it cannot run escape analysis,
// so a flagged construct is "heap-shaped", not proven to escape. The
// allocs/op budgets enforced by scripts/allocs_gate.sh and the compiler
// diagnostics proven by cmd/tnproof are the complements that catch what
// this pass cannot see.
func HotAlloc() *Analyzer {
	return &Analyzer{
		Name:     "hotalloc",
		Doc:      "forbid heap-allocating constructs in per-tick kernel hot functions",
		Packages: HotPackages,
		Run:      runHotAlloc,
	}
}

func runHotAlloc(pkg *Package, report ReportFunc) {
	resets := collectResets(pkg)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !(hotFuncNames[fd.Name.Name] || hasPerfHot(fd.Doc)) {
				continue
			}
			aliases := collectAliases(fd.Body)
			checkHotBody(pkg, f, fd.Body, false, aliases, resets, report)
			if pkg.Prog == nil {
				continue
			}
			fn := pkg.Prog.FuncAt(fd.Name.Pos())
			if fn == nil {
				continue
			}
			for _, t := range pkg.Prog.CallTaints(fn, HazardAlloc, func(callee *FuncNode) bool {
				return callee.hot()
			}) {
				report(t.Chain[0].Pos, "call to %s reaches an allocation on the per-tick path: %s",
					t.Chain[0].Name, t.Describe(pkg.Fset))
			}
		}
	}
}

// collectResets scans the whole package for `x = y[:0]`-style assignments
// and returns the terminal names of the reset buffers, resolved through the
// enclosing function's aliases. A reset anywhere in the package sanctions
// per-tick appends to that buffer: the backing array is being reused, so
// growth amortizes to zero.
func collectResets(pkg *Package) map[string]bool {
	resets := map[string]bool{}
	for _, f := range pkg.Files {
		aliases := map[string]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				aliases = collectAliases(fd.Body)
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				if isResliceToZero(rhs) {
					if name := terminalName(as.Lhs[i]); name != "" {
						resets[resolveAlias(name, aliases)] = true
					}
				}
			}
			return true
		})
	}
	return resets
}

// isResliceToZero reports whether e is `x[:0]` (or `x[0:0]`).
func isResliceToZero(e ast.Expr) bool {
	s, ok := e.(*ast.SliceExpr)
	if !ok || s.Slice3 {
		return false
	}
	if s.Low != nil && !isIntLit(s.Low, "0") {
		return false
	}
	return s.High != nil && isIntLit(s.High, "0")
}

func isIntLit(e ast.Expr, text string) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == text
}

// collectAliases maps local `name := expr` aliases, and the value variable
// of `for _, name := range expr`, to the terminal name of their source,
// chasing chains (out := s.outbox[w] → out ↦ outbox).
func collectAliases(body *ast.BlockStmt) map[string]string {
	aliases := map[string]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok && rs.Tok == token.DEFINE {
			if id, ok := rs.Value.(*ast.Ident); ok && id.Name != "_" {
				if src := terminalName(rs.X); src != "" && src != id.Name {
					aliases[id.Name] = src
				}
			}
			return true
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if src := terminalName(as.Rhs[i]); src != "" && src != id.Name {
				aliases[id.Name] = src
			}
		}
		return true
	})
	return aliases
}

// resolveAlias chases alias links to a fixed point (bounded against cycles).
func resolveAlias(name string, aliases map[string]string) string {
	for i := 0; i < 8; i++ {
		next, ok := aliases[name]
		if !ok {
			return name
		}
		name = next
	}
	return name
}

// checkHotBody walks one hot function body. inLoop tracks whether the walk
// is lexically inside a for/range statement (rule 4). Nested func literals
// stay hot: a closure called from the tick path is the tick path.
func checkHotBody(pkg *Package, f *ast.File, body ast.Node, inLoop bool, aliases map[string]string, resets map[string]bool, report ReportFunc) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			checkHotParts(pkg, f, inLoop, aliases, resets, report, n.Init, n.Cond, n.Post)
			checkHotBody(pkg, f, n.Body, true, aliases, resets, report)
			return false
		case *ast.RangeStmt:
			checkHotParts(pkg, f, inLoop, aliases, resets, report, n.X)
			checkHotBody(pkg, f, n.Body, true, aliases, resets, report)
			return false
		case *ast.GoStmt:
			// The launch, closure included, is ticksafe's finding; the
			// spawned body is still hot code.
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				for _, arg := range n.Call.Args {
					checkHotParts(pkg, f, inLoop, aliases, resets, report, arg)
				}
				checkHotBody(pkg, f, fl.Body, false, aliases, resets, report)
				return false
			}
		case *ast.FuncLit:
			if inLoop {
				report(n.Pos(), "func literal inside a per-tick loop allocates a closure every iteration; hoist it above the loop")
			}
			checkHotBody(pkg, f, n.Body, false, aliases, resets, report)
			return false
		case *ast.CallExpr:
			checkHotCall(pkg, f, n, aliases, resets, report)
		case *ast.CompositeLit:
			checkHotComposite(pkg, n, report)
			return false // element literals of a flagged literal are implied
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal escapes to the heap on the per-tick path; reuse a preallocated value")
					return false
				}
			}
		}
		return true
	})
}

// checkHotParts runs the walk over loose expression/statement parts (loop
// headers, go-call arguments) without re-entering loop bodies.
func checkHotParts(pkg *Package, f *ast.File, inLoop bool, aliases map[string]string, resets map[string]bool, report ReportFunc, parts ...ast.Node) {
	for _, p := range parts {
		if p == nil {
			continue
		}
		if e, ok := p.(ast.Expr); ok && e == nil {
			continue
		}
		checkHotBody(pkg, f, p, inLoop, aliases, resets, report)
	}
}

// checkHotCall applies rules 1 (fmt/log), 2 (make), and 5 (append) to one
// call on the hot path.
func checkHotCall(pkg *Package, f *ast.File, call *ast.CallExpr, aliases map[string]string, resets map[string]bool, report ReportFunc) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			report(call.Pos(), "make on the per-tick path allocates every tick; allocate once at construction and reuse")
		case "append":
			if len(call.Args) == 0 {
				return
			}
			base := terminalName(call.Args[0])
			if base == "" {
				return
			}
			if resets[resolveAlias(base, aliases)] {
				return // buffer is reslice-reused somewhere in the package
			}
			report(call.Pos(), "append to %q may grow the heap every tick and the buffer is never reslice-reused; preallocate and reset with %s = %s[:0]", base, base, base)
		}
	case *ast.SelectorExpr:
		for _, pkgPath := range []string{"fmt", "log"} {
			name := importedName(f, pkgPath)
			if name != "" && isPkgSelector(pkg, fun, name, fun.Sel.Name) {
				report(call.Pos(), "%s.%s on the per-tick path allocates and boxes its operands; move formatting off the tick path", name, fun.Sel.Name)
				return
			}
		}
	}
}

// checkHotComposite applies rule 3: slice and map composite literals
// allocate; struct and fixed-size array value literals do not.
func checkHotComposite(pkg *Package, lit *ast.CompositeLit, report ReportFunc) {
	if t := pkg.TypeOf(lit); t != nil {
		switch t.Underlying().(type) {
		case *types.Slice:
			report(lit.Pos(), "slice literal allocates on the per-tick path; use a fixed-size array or a reused buffer")
			return
		case *types.Map:
			report(lit.Pos(), "map literal allocates on the per-tick path; build it once at construction")
			return
		default:
			return
		}
	}
	// Type info unavailable (stubbed import): fall back to syntax.
	switch t := lit.Type.(type) {
	case *ast.ArrayType:
		if t.Len == nil {
			report(lit.Pos(), "slice literal allocates on the per-tick path; use a fixed-size array or a reused buffer")
		}
	case *ast.MapType:
		report(lit.Pos(), "map literal allocates on the per-tick path; build it once at construction")
	}
}
