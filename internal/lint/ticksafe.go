package lint

import (
	"go/ast"
	"go/token"
)

// TickSafe returns the concurrency-pattern analyzer. The kernel is
// single-threaded everywhere except internal/compass, whose Step runs the
// documented semi-synchronous worker pattern: inline `go func` worker
// literals joined by a sync.WaitGroup, with two barriers per tick. ticksafe
// enforces three rules:
//
//  1. No goroutine launches in kernel packages outside internal/compass.
//  2. In internal/compass, every `go` statement is an inline func literal
//     that signals completion with `defer wg.Done()`.
//  3. A WaitGroup-managed worker may assign to captured (outer-scope)
//     variables only through an indexed slot (e.g. perWorker[w] = ...), the
//     share-nothing discipline that makes the compute phase race-free.
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
		Doc:      "restrict goroutines and shared-state writes to the Compass worker pattern",
		Packages: KernelPackages,
		Run:      runTickSafe,
	}
}

func runTickSafe(pkg *Package, report ReportFunc) {
	inCompass := pkg.Path == Module+"/internal/compass"
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !inCompass {
				report(g.Pos(), "goroutine launch in kernel package %s; parallelism is sanctioned only in the Compass engine", pkg.Path)
				return true
			}
			fl, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				report(g.Pos(), "goroutine must be an inline worker func literal with completion signalling")
				return true
			}
			if !hasDeferDone(fl.Body) {
				report(g.Pos(), "worker goroutine has no completion signal (defer wg.Done())")
				return true
			}
			checkWorkerWrites(fl, report)
			return true
		})
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

// hasDeferDone reports whether body contains `defer x.Done()`.
func hasDeferDone(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkWorkerWrites flags assignments and ++/-- inside a WaitGroup-managed
// worker whose target is a captured variable reached without any index
// expression: `s.outputs = append(...)` races between workers, while
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
