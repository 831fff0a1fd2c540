package lint

import (
	"go/ast"
	"strings"
)

// Detrand returns the determinism-of-randomness analyzer. Kernel packages
// must draw every random choice from truenorth/internal/prng with an
// explicitly plumbed seed: math/rand (v1 or v2) is banned outright — its
// stream is not part of this repo's reproducibility contract and changes
// across Go releases — and time.Now is banned because tick-domain code that
// reads the wall clock (for seeding or for logic) cannot be replayed.
//
// With call-graph context (RunWithContext), detrand also taints through
// helpers: a function in a core kernel package (the explicitly listed
// entries of KernelPackages, not the cmd/... wildcard, whose mains may
// time things legitimately) that calls a module helper
// which draws from math/rand or reads time.Now is reported at the call
// site with the witness chain. Callees in packages detrand checks directly
// are skipped — their own bodies already carry the finding.
func Detrand() *Analyzer {
	return &Analyzer{
		Name:     "detrand",
		Doc:      "forbid math/rand, time.Now, and clock-derived seeding in kernel packages",
		Packages: KernelPackages,
		Run:      runDetrand,
	}
}

func runDetrand(pkg *Package, report ReportFunc) {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				report(imp.Pos(), "kernel package imports %s; use truenorth/internal/prng with an explicit seed", path)
			}
		}
		timeName := importedName(f, "time")
		if timeName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if isPkgSelector(pkg, sel, timeName, "Now") {
				report(call.Pos(), "kernel package calls time.Now; tick-domain state must not depend on the wall clock")
			}
			return true
		})
	}
	if pkg.Prog == nil || !explicitKernelPackage(pkg.Path) {
		return
	}
	detrandApplies := Detrand().applies
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
			for _, t := range pkg.Prog.CallTaints(fn, HazardRand, func(callee *FuncNode) bool {
				return detrandApplies(callee.Pkg.Path)
			}) {
				report(t.Chain[0].Pos, "call to %s reaches nondeterminism from a kernel package: %s",
					t.Chain[0].Name, t.Describe(pkg.Fset))
			}
		}
	}
}

// explicitKernelPackage reports whether path is one of the explicitly
// listed kernel packages (not matched via a /... wildcard).
func explicitKernelPackage(path string) bool {
	for _, p := range KernelPackages {
		if p == path {
			return true
		}
	}
	return false
}
