package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TickSafe returns the concurrency-pattern analyzer. The kernel is
// single-threaded everywhere except internal/compass, whose engine runs the
// semi-synchronous worker pattern: a pool of persistent workers, started at
// construction, each running one phase per message on its start channel and
// signalling a reused sync.WaitGroup, with two barriers per tick. ticksafe
// enforces three rules, and is the suite's one owner of `go` statements on
// the tick path:
//
//  1. No goroutine launches in kernel packages outside internal/compass,
//     except a construction fan-out in FanOutPackages: an inline func
//     literal, launched outside every per-tick hot function, that writes
//     captured state only through indexed slots (rule 3).
//  2. In internal/compass, every `go` statement is a pool worker: an inline
//     func literal whose body is one `for … range ch` loop over a channel
//     that calls Done() once per iteration. Closing ch is its shutdown arm.
//     A per-tick fork-join (`go func() { defer wg.Done(); … }()`) is not
//     the pattern: it pays a goroutine every phase. A pool worker is
//     started once, at construction: launching even a well-shaped worker
//     inside a per-tick hot function (hotalloc's hot set — the named
//     kernel functions and //perf:hot) spawns a goroutine every tick.
//  3. A pool worker may assign to captured (outer-scope) variables only
//     through an indexed slot (e.g. perWorker[w] = ...), the share-nothing
//     discipline that makes the compute phase race-free.
//
// With call-graph context (RunWithContext), rule 1 is interprocedural for
// the explicitly listed kernel packages: calling a module helper that
// launches a goroutine is reported at the call site with the witness chain
// (a kernel that spawns through an intermediary is still spawning). Callees
// in packages ticksafe checks directly are skipped, as is everything behind
// the sanctioned cold-path barriers.
func TickSafe() *Analyzer {
	return &Analyzer{
		Name:     "ticksafe",
		Doc:      "restrict goroutines and shared-state writes to the Compass worker pool",
		Packages: KernelPackages,
		Run:      runTickSafe,
	}
}

func runTickSafe(pkg *Package, report ReportFunc) {
	inCompass := pkg.Path == Module+"/internal/compass"
	inFanOut := pathMatches(FanOutPackages, pkg.Path)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			hot := ""
			if fd, ok := decl.(*ast.FuncDecl); ok && (hotFuncNames[fd.Name.Name] || hasPerfHot(fd.Doc)) {
				hot = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !inCompass {
					if !inFanOut {
						report(g.Pos(), "goroutine launch in kernel package %s; parallelism is sanctioned only in the Compass engine and construction fan-outs", pkg.Path)
						return true
					}
					fl, ok := g.Call.Fun.(*ast.FuncLit)
					switch {
					case !ok:
						report(g.Pos(), "construction fan-out must be an inline func literal")
					case hot != "":
						report(g.Pos(), "construction fan-out launched inside per-tick hot function %s", hot)
					default:
						checkWorkerWrites(fl, report)
					}
					return true
				}
				fl, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					report(g.Pos(), "goroutine must be an inline pool-worker func literal")
					return true
				}
				if msg := poolWorkerShape(pkg, fl); msg != "" {
					report(g.Pos(), "%s", msg)
					return true
				}
				if hot != "" {
					report(g.Pos(), "pool worker launched inside per-tick hot function %s spawns a goroutine every tick; start the pool once, at construction", hot)
					return true
				}
				checkWorkerWrites(fl, report)
				return true
			})
		}
	}
	if pkg.Prog == nil || inCompass || !explicitKernelPackage(pkg.Path) {
		return
	}
	ticksafeApplies := TickSafe().applies
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := pkg.Prog.FuncAt(fd.Name.Pos())
			if fn == nil {
				continue
			}
			for _, t := range pkg.Prog.CallTaints(fn, HazardGo, func(callee *FuncNode) bool {
				return ticksafeApplies(callee.Pkg.Path)
			}) {
				report(t.Chain[0].Pos, "call to %s launches a goroutine from kernel package %s: %s",
					t.Chain[0].Name, pkg.Path, t.Describe(pkg.Fset))
			}
		}
	}
}

// poolWorkerShape returns why fl is not a pool worker, or "" when it is: its
// body is one range loop over a channel, and that loop's body calls Done()
// exactly once, as one of its own statements.
func poolWorkerShape(pkg *Package, fl *ast.FuncLit) string {
	var loop *ast.RangeStmt
	if len(fl.Body.List) == 1 {
		loop, _ = fl.Body.List[0].(*ast.RangeStmt)
	}
	if loop == nil || !isChanExpr(pkg, loop.X) {
		return "goroutine is not a pool worker: its body must be one `for … range ch` loop, started once, not a spawn per tick"
	}
	top, all := 0, 0
	for _, st := range loop.Body.List {
		if es, ok := st.(*ast.ExprStmt); ok && isDoneCall(es.X) {
			top++
		}
	}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if isDoneCall(n) {
			all++
		}
		return true
	})
	if top != 1 || all != 1 {
		return "pool worker must signal completion once per iteration: exactly one Done() statement in its loop body"
	}
	return ""
}

// isDoneCall reports whether n is an argument-less `x.Done()` call.
func isDoneCall(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done"
}

// isChanExpr reports whether e has channel type; without type information
// (a stubbed import) it gives e the benefit of the doubt.
func isChanExpr(pkg *Package, e ast.Expr) bool {
	t := pkg.TypeOf(e)
	if t == nil {
		return true
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// checkWorkerWrites flags assignments and ++/-- inside a pool worker whose
// target is a captured variable reached without any index expression:
// `s.outputs = append(...)` races between workers, while
// `s.outbox[w][dst] = append(...)` is the sanctioned per-worker slot.
func checkWorkerWrites(fl *ast.FuncLit, report ReportFunc) {
	local := localNames(fl)
	flag := func(lhs ast.Expr) {
		root, indexed := lhsRoot(lhs)
		if root == nil || root.Name == "_" || indexed || local[root.Name] {
			return
		}
		report(lhs.Pos(), "worker goroutine writes captured %q without a per-worker indexed slot (data race)", root.Name)
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // := declares worker-local variables
			}
			for _, lhs := range n.Lhs {
				flag(lhs)
			}
		case *ast.IncDecStmt:
			flag(n.X)
		}
		return true
	})
}

// lhsRoot unwraps an assignment target to its root identifier, reporting
// whether any index expression was crossed on the way.
func lhsRoot(e ast.Expr) (root *ast.Ident, indexed bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, indexed
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			indexed = true
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, indexed
		}
	}
}

// localNames collects every identifier declared anywhere inside fl —
// parameters, := definitions, var/const/type declarations, range variables,
// and nested function-literal parameters — so writes to them are recognized
// as worker-local. Shadowing a captured name with a local of the same name
// is treated as local (conservatively quiet).
func localNames(fl *ast.FuncLit) map[string]bool {
	names := map[string]bool{}
	addFields := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			for _, n := range f.Names {
				names[n.Name] = true
			}
		}
	}
	addFields(fl.Type.Params)
	addFields(fl.Type.Results)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						names[id.Name] = true
					}
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						names[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						names[id.Name] = true
					}
				}
			}
		case *ast.FuncLit:
			addFields(n.Type.Params)
			addFields(n.Type.Results)
		}
		return true
	})
	return names
}
