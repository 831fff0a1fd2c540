package lint

import (
	"go/ast"
	"regexp"
)

// GoCtx returns the goroutine-shutdown analyzer for the concurrency
// packages. Every goroutine the runtime, serving layer or engines spawn
// must be able to exit when its session closes: a session is created per HTTP request, so
// a goroutine that blocks forever is a per-request leak — the serving
// process accretes parked goroutines until it dies, long after every test
// has passed.
//
// goctx resolves each `go` statement to its function body (a func literal,
// or a same-package function/method called by name) and flags any
// condition-less `for { ... }` loop in it that has no shutdown arm. A loop
// is shutdown-aware when its body mentions a cancellation signal: a
// ctx.Done() arm, a receive from a done/quit/stop/close channel, or a
// closing-flag check (`if s.closing { return }`). Loops with a condition
// (`for !s.closing`, `for i < n`) and `range` loops are never flagged — a
// range over a channel ends when the owner closes it, and a conditional
// loop ends when the condition flips.
//
// The check is nominal (it matches identifier names against a
// done/quit/stop/clos.../shutdown/ctx/cancel pattern), so it enforces a
// naming discipline as much as a liveness property: shutdown signals must
// look like shutdown signals.
func GoCtx() *Analyzer {
	return &Analyzer{
		Name:     "goctx",
		Doc:      "require a shutdown arm in every goroutine loop spawned by the concurrency packages",
		Packages: ConcurrencyPackages,
		Run:      runGoCtx,
	}
}

// shutdownNameRe matches identifiers that plausibly carry a cancellation
// signal ("done", "quit", "stop", "closing"/"closed"/"close", "shutdown",
// "ctx", "cancel").
var shutdownNameRe = regexp.MustCompile(`(?i)done|quit|stop|clos|shutdown|ctx|cancel`)

func runGoCtx(pkg *Package, report ReportFunc) {
	// Function and method bodies by name, for `go s.loop()` / `go run()`.
	bodies := map[string]*ast.BlockStmt{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				bodies[fd.Name.Name] = fd.Body
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if body := resolveGoBody(g.Call, bodies); body != nil {
				checkGoBody(body, report)
			}
			return true
		})
	}
}

// resolveGoBody returns the body a `go` statement runs: an inline func
// literal, or a same-package function/method matched by name. Calls into
// other packages resolve to nil and stay quiet — the analyzer only judges
// code it can see.
func resolveGoBody(call *ast.CallExpr, bodies map[string]*ast.BlockStmt) *ast.BlockStmt {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		return bodies[fun.Name]
	case *ast.SelectorExpr:
		return bodies[fun.Sel.Name]
	}
	return nil
}

// checkGoBody flags condition-less loops without a shutdown arm. Nested
// func literals are skipped: they are not this goroutine's loop.
func checkGoBody(body *ast.BlockStmt, report ReportFunc) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond == nil && !hasShutdownArm(n.Body) {
				report(n.Pos(), "goroutine loop has no shutdown arm (ctx.Done arm, done-channel receive, or closing-flag check); it leaks when the session closes")
				return false // the fix restructures the loop; don't pile on
			}
		}
		return true
	})
}

// hasShutdownArm reports whether a loop body mentions a cancellation
// signal: any identifier matching shutdownNameRe (s.closing, <-done,
// ctx.Done(), cancel) outside nested func literals.
func hasShutdownArm(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if shutdownNameRe.MatchString(n.Name) {
				found = true
			}
		}
		return true
	})
	return found
}
