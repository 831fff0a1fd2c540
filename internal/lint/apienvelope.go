package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// APIEnvelopePackages is the serving surface whose error contract
// apienvelope pins.
var APIEnvelopePackages = []string{Module + "/internal/serve"}

// APIEnvelope returns the error-envelope contract analyzer for the serving
// package. The v1 API promises one error shape — the JSON envelope
// {"error":{code,message}} with eight stable codes — and one code↔status
// mapping, declared once in the package-level codeStatus registry. The
// analyzer enforces that promise at every site:
//
//   - every writeError call passes a registered code constant, and the
//     status expression at the call site matches the registry entry for
//     that code — the mapping cannot fork per call site;
//   - every (status, code) return pair built from constants (the
//     statusCodeOf shape) is consistent with the registry too;
//   - every package-level "code*" string constant is a registry key, so a
//     code cannot be declared and then drift out of the documented table;
//   - no handler writes a raw http.Error — that emits text/plain, not the
//     envelope;
//   - no function except writeJSON calls WriteHeader — committing a status
//     outside the envelope writer bypasses the contract (streaming
//     endpoints that intentionally commit 200 before a non-JSON body carry
//     a reasoned //lint:ignore).
//
// The stdlib is stubbed under this loader, so http.Status* constants have
// no values here; statuses are compared by their rendered expression
// ("http.StatusBadRequest"), which also keeps the diagnostics readable.
func APIEnvelope() *Analyzer {
	return &Analyzer{
		Name:     "apienvelope",
		Doc:      "error responses go through writeError with a registered code; code↔status mapping matches the codeStatus registry everywhere",
		Packages: APIEnvelopePackages,
		Run:      runAPIEnvelope,
	}
}

// codeRegistry is the parsed codeStatus map: code constant name → rendered
// status expression, plus per-entry positions for diagnostics and the
// surface extractor.
type codeRegistry struct {
	pos      token.Pos
	statusOf map[string]string    // "codeBusy" → "http.StatusConflict"
	keyPos   map[string]token.Pos // "codeBusy" → its registry-entry position
}

// findCodeRegistry locates the package-level codeStatus map literal.
func findCodeRegistry(pkg *Package) *codeRegistry {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "codeStatus" || i >= len(vs.Values) {
						continue
					}
					cl, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit)
					if !ok {
						continue
					}
					reg := &codeRegistry{
						pos:      name.Pos(),
						statusOf: map[string]string{},
						keyPos:   map[string]token.Pos{},
					}
					for _, elt := range cl.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := ast.Unparen(kv.Key).(*ast.Ident)
						if !ok {
							continue
						}
						reg.statusOf[key.Name] = exprPath(ast.Unparen(kv.Value))
						reg.keyPos[key.Name] = key.Pos()
					}
					return reg
				}
			}
		}
	}
	return nil
}

func runAPIEnvelope(pkg *Package, report ReportFunc) {
	reg := findCodeRegistry(pkg)

	// Pass 1: declarations. Every package-level "code*" string constant
	// must be a registry key.
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "code") || i >= len(vs.Values) {
						continue
					}
					lit, ok := ast.Unparen(vs.Values[i]).(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					if reg == nil {
						report(name.Pos(), "error code %s declared but the package has no codeStatus registry", name.Name)
						continue
					}
					if _, ok := reg.statusOf[name.Name]; !ok {
						report(name.Pos(), "error code %s is not in the codeStatus registry; every stable code must map to exactly one status", name.Name)
					}
				}
			}
		}
	}

	// Pass 2: call and return sites, per enclosing function.
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkEnvelopeBody(pkg, fd, reg, report)
		}
	}
}

// isPkgLevelStringConst reports whether id names a package-level string
// constant of the analyzed package (registered codes are exactly those).
func isPkgLevelStringConst(pkg *Package, id *ast.Ident) bool {
	if pkg.Info == nil {
		return false
	}
	obj, ok := pkg.Info.Uses[id].(*types.Const)
	if !ok {
		return false
	}
	basic, ok := obj.Type().Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// checkEnvelopeBody checks one function body's error-path sites.
func checkEnvelopeBody(pkg *Package, fd *ast.FuncDecl, reg *codeRegistry, report ReportFunc) {
	// (int, string) results make the function a statusCodeOf-shaped
	// mapper: its constant return pairs are mapping sites too.
	mapsStatus := resultsIntString(pkg, fd)

	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			// Raw http.Error bypasses the envelope entirely.
			if path, sel, ok := pkgCall(pkg, x); ok && path == "net/http" && sel == "Error" {
				report(x.Pos(), "http.Error writes text/plain, not the error envelope; use writeError with a registered code")
				return true
			}
			// WriteHeader belongs to writeJSON alone.
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "WriteHeader" &&
				len(x.Args) == 1 && fd.Name.Name != "writeJSON" {
				report(x.Pos(), "WriteHeader outside writeJSON commits a status without the envelope; route the response through writeJSON/writeError")
				return true
			}
			// writeError(w, status, code, msg) sites.
			if name := callName(x); name == "writeError" && len(x.Args) == 4 {
				checkWriteErrorSite(pkg, x, reg, report)
			}
		case *ast.ReturnStmt:
			if mapsStatus && len(x.Results) == 2 {
				checkStatusPair(pkg, x, reg, report)
			}
		}
		return true
	})
}

// resultsIntString reports whether fd's results are exactly (int, string).
func resultsIntString(pkg *Package, fd *ast.FuncDecl) bool {
	res := fd.Type.Results
	if res == nil || len(res.List) != 2 {
		return false
	}
	kind := func(e ast.Expr) string {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			return id.Name
		}
		return ""
	}
	if len(res.List[0].Names) > 1 || len(res.List[1].Names) > 1 {
		return false
	}
	return kind(res.List[0].Type) == "int" && kind(res.List[1].Type) == "string"
}

// checkWriteErrorSite validates one writeError call: registered code,
// registry-consistent status. Pass-through sites whose code is a variable
// (writeErr forwarding statusCodeOf's result) are skipped — the mapper's
// own return pairs are checked instead.
func checkWriteErrorSite(pkg *Package, call *ast.CallExpr, reg *codeRegistry, report ReportFunc) {
	codeExpr := ast.Unparen(call.Args[2])
	codeID, ok := codeExpr.(*ast.Ident)
	if !ok {
		if lit, isLit := codeExpr.(*ast.BasicLit); isLit && lit.Kind == token.STRING {
			report(call.Args[2].Pos(), "writeError code is a string literal %s; use a registered code constant", lit.Value)
		}
		return
	}
	if !isPkgLevelStringConst(pkg, codeID) {
		return // a forwarded variable: the producing mapper is checked at its returns
	}
	if reg == nil {
		report(call.Args[2].Pos(), "writeError uses code %s but the package has no codeStatus registry", codeID.Name)
		return
	}
	wantStatus, registered := reg.statusOf[codeID.Name]
	if !registered {
		report(call.Args[2].Pos(), "writeError code %s is not in the codeStatus registry", codeID.Name)
		return
	}
	gotStatus := exprPath(ast.Unparen(call.Args[1]))
	if gotStatus != "" && gotStatus != wantStatus {
		report(call.Args[1].Pos(), "writeError status %s does not match the codeStatus registry (%s → %s); one code, one status",
			gotStatus, codeID.Name, wantStatus)
	}
}

// checkStatusPair validates one constant (status, code) return pair
// against the registry.
func checkStatusPair(pkg *Package, ret *ast.ReturnStmt, reg *codeRegistry, report ReportFunc) {
	codeExpr := ast.Unparen(ret.Results[1])
	codeID, ok := codeExpr.(*ast.Ident)
	if !ok || !isPkgLevelStringConst(pkg, codeID) {
		return // "" or a computed code: not a mapping declaration
	}
	if reg == nil {
		report(codeID.Pos(), "status mapper returns code %s but the package has no codeStatus registry", codeID.Name)
		return
	}
	wantStatus, registered := reg.statusOf[codeID.Name]
	if !registered {
		report(codeID.Pos(), "status mapper returns unregistered code %s", codeID.Name)
		return
	}
	gotStatus := exprPath(ast.Unparen(ret.Results[0]))
	if gotStatus != "" && gotStatus != wantStatus {
		report(ret.Results[0].Pos(), "status mapper returns %s for code %s but the codeStatus registry says %s",
			gotStatus, codeID.Name, wantStatus)
	}
}
