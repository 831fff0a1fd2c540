package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the apisurface extractor: it walks the serving package via
// go/types and the module call graph and produces the canonical v1 surface
// spec — every route registration, each handler's reachable error codes
// (with their statuses), and the transitive JSON shape of every wire
// struct. The spec is diffed two-sided against testdata/apisurface/v1.golden
// (TestAPISurfaceGolden; re-bless with -update-apisurface) and rendered
// into README.md's endpoint table, so the docs and the code cannot drift
// apart: adding, removing, or retyping any endpoint, field, or code fails
// the gate with a file:line diagnostic.

// SurfacePackage is the package the extractor walks.
const SurfacePackage = Module + "/internal/serve"

// httpStatusValue maps the status-constant names the serving package uses
// to their numeric values. The lint loader stubs net/http, so the values
// are not resolvable from type information; this table exists purely to
// render human-readable numbers next to the symbolic names.
var httpStatusValue = map[string]int{
	"http.StatusOK":                    200,
	"http.StatusCreated":               201,
	"http.StatusBadRequest":            400,
	"http.StatusNotFound":              404,
	"http.StatusConflict":              409,
	"http.StatusGone":                  410,
	"http.StatusRequestEntityTooLarge": 413,
	"http.StatusTooManyRequests":       429,
	"http.StatusInternalServerError":   500,
	"http.StatusServiceUnavailable":    503,
}

// statusNum renders "409" for "http.StatusConflict", "?" for a name the
// table does not know (which the golden diff will surface for review).
func statusNum(name string) string {
	if v, ok := httpStatusValue[name]; ok {
		return fmt.Sprintf("%d", v)
	}
	return "?"
}

// SurfaceLine is one canonical spec line with the source position it was
// extracted from, so golden drift reports file:line.
type SurfaceLine struct {
	Text string
	Pos  token.Pos
}

// SurfaceError is one (code, status) pair reachable from a handler.
type SurfaceError struct {
	Code   string // registry constant name, e.g. "codeBusy"
	Value  string // the code's wire value, e.g. "busy"
	Status string // rendered status expression
}

// SurfaceResponse is one success payload a handler writes.
type SurfaceResponse struct {
	Type   string
	Status string
}

// SurfaceEndpoint is one registered route.
type SurfaceEndpoint struct {
	Method    string
	Path      string
	Handler   string
	Request   string // request struct decoded from the body, "" if none
	Responses []SurfaceResponse
	Errors    []SurfaceError
	Pos       token.Pos
}

// SurfaceField is one wire-struct field.
type SurfaceField struct {
	Name string
	Tag  string // full json tag ("name,omitempty")
	Type string
	Pos  token.Pos
}

// SurfaceStruct is one wire struct reachable from the endpoints.
type SurfaceStruct struct {
	Name   string
	Fields []SurfaceField
	Pos    token.Pos
}

// SurfaceCode is one registered error code.
type SurfaceCode struct {
	Name   string // constant name
	Value  string // wire value
	Status string
	Pos    token.Pos
}

// Surface is the extracted v1 API contract.
type Surface struct {
	Codes     []SurfaceCode
	Endpoints []SurfaceEndpoint
	Structs   []SurfaceStruct
	fset      *token.FileSet
}

// ExtractSurface builds the surface spec from the loaded program. pkgs
// must contain the serving package; prog provides the call graph that
// resolves each handler's reachable error sites.
func ExtractSurface(prog *Program, pkgs []*Package) (*Surface, error) {
	var serve *Package
	for _, p := range pkgs {
		if p.Path == SurfacePackage {
			serve = p
		}
	}
	if serve == nil {
		return nil, fmt.Errorf("apisurface: package %s not loaded", SurfacePackage)
	}
	ex := &surfaceExtractor{pkg: serve, prog: prog}
	return ex.extract()
}

type surfaceExtractor struct {
	pkg  *Package
	prog *Program
}

func (ex *surfaceExtractor) extract() (*Surface, error) {
	s := &Surface{fset: ex.pkg.Fset}

	// Codes: the codeStatus registry plus each constant's wire value.
	values := ex.codeValues()
	reg := findCodeRegistry(ex.pkg)
	if reg == nil {
		return nil, fmt.Errorf("apisurface: %s has no codeStatus registry", SurfacePackage)
	}
	for name, status := range reg.statusOf {
		s.Codes = append(s.Codes, SurfaceCode{
			Name: name, Value: values[name], Status: status, Pos: reg.keyPos[name],
		})
	}
	sort.Slice(s.Codes, func(i, j int) bool { return s.Codes[i].Value < s.Codes[j].Value })

	// Endpoints: every mux registration in Handler().
	eps, err := ex.endpoints(values)
	if err != nil {
		return nil, err
	}
	s.Endpoints = eps

	// Wire structs: transitive closure over request/response field types.
	s.Structs = ex.wireStructs(eps)
	return s, nil
}

// codeValues maps each package-level "code*" string constant to its wire
// value ("codeBusy" → "busy").
func (ex *surfaceExtractor) codeValues() map[string]string {
	out := map[string]string{}
	for _, f := range ex.pkg.Files {
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
					if i >= len(vs.Values) {
						continue
					}
					if lit, ok := ast.Unparen(vs.Values[i]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
						out[name.Name] = strings.Trim(lit.Value, `"`)
					}
				}
			}
		}
	}
	return out
}

// endpoints parses every mux.HandleFunc("METHOD /path", handler)
// registration, unwrapping the withSession adapter, and resolves each
// handler's request type, response payloads, and reachable error codes.
func (ex *surfaceExtractor) endpoints(values map[string]string) ([]SurfaceEndpoint, error) {
	var eps []SurfaceEndpoint
	for _, f := range ex.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name != "Handler" {
				continue
			}
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok || callName(call) != "HandleFunc" || len(call.Args) != 2 {
					return true
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				pattern := strings.Trim(lit.Value, `"`)
				method, path, found := strings.Cut(pattern, " ")
				if !found {
					method, path = "*", pattern
				}
				handlers := ex.resolveHandlers(call.Args[1])
				if len(handlers) == 0 {
					return true
				}
				ep := SurfaceEndpoint{Method: method, Path: path, Pos: call.Pos(),
					Handler: handlers[len(handlers)-1].Decl.Name.Name}
				ep.Request = ex.requestType(handlers[len(handlers)-1])
				ep.Responses = ex.responses(handlers[len(handlers)-1])
				ep.Errors = ex.reachableErrors(handlers, values)
				eps = append(eps, ep)
				return true
			})
		}
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("apisurface: no HandleFunc registrations found in %s.Handler", SurfacePackage)
	}
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].Path != eps[j].Path {
			return eps[i].Path < eps[j].Path
		}
		return eps[i].Method < eps[j].Method
	})
	return eps, nil
}

// resolveHandlers resolves a registration argument to its handler chain:
// s.handleX → [handleX]; s.withSession(s.handleX) → [withSession, handleX].
// The whole chain contributes error sites (withSession 404s unknown ids);
// the last element is the endpoint's named handler.
func (ex *surfaceExtractor) resolveHandlers(arg ast.Expr) []*FuncNode {
	var out []*FuncNode
	add := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || ex.pkg.Info == nil {
			return
		}
		fn, ok := ex.pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return
		}
		if n := ex.prog.FuncAt(fn.Pos()); n != nil {
			out = append(out, n)
		}
	}
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok && len(call.Args) >= 1 {
		add(call.Fun)     // the adapter (withSession)
		add(call.Args[0]) // the wrapped handler
		return out
	}
	add(arg)
	return out
}

// requestType finds the named struct the handler decodes its body into.
func (ex *surfaceExtractor) requestType(n *FuncNode) string {
	req := ""
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok || callName(call) != "decodeBody" || len(call.Args) != 2 {
			return true
		}
		un, ok := ast.Unparen(call.Args[1]).(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			return true
		}
		if t := ex.pkg.TypeOf(un.X); t != nil {
			req = localTypeName(t)
		}
		return true
	})
	return req
}

// responses collects the handler's direct writeJSON payload types
// (excluding the error envelope, which every endpoint shares).
func (ex *surfaceExtractor) responses(n *FuncNode) []SurfaceResponse {
	var out []SurfaceResponse
	seen := map[string]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok || callName(call) != "writeJSON" || len(call.Args) != 3 {
			return true
		}
		name := ""
		if t := ex.pkg.TypeOf(ast.Unparen(call.Args[2])); t != nil {
			name = renderWireType(t)
		}
		if name == "" || name == "ErrorBody" {
			return true
		}
		status := exprPath(ast.Unparen(call.Args[1]))
		key := name + " " + status
		if !seen[key] {
			seen[key] = true
			out = append(out, SurfaceResponse{Type: name, Status: status})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Status < out[j].Status
	})
	return out
}

// reachableErrors BFSes the call graph from the handler chain, collecting
// every writeError call site with a constant code and every constant
// (status, code) return pair of (int, string) mappers (statusCodeOf).
// Traversal stays inside the serving package: error responses are a
// serving-layer concept, and runtime errors enter through the mappers.
func (ex *surfaceExtractor) reachableErrors(roots []*FuncNode, values map[string]string) []SurfaceError {
	seenFn := map[*FuncNode]bool{}
	queue := append([]*FuncNode{}, roots...)
	pairs := map[string]SurfaceError{}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == nil || seenFn[n] || n.Pkg != ex.pkg {
			continue
		}
		seenFn[n] = true
		ex.errorSites(n, values, pairs)
		for _, e := range n.Calls {
			if callee := ex.prog.FuncAt(e.Callee); callee != nil {
				queue = append(queue, callee)
			}
		}
	}
	out := make([]SurfaceError, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// errorSites records n's own writeError calls and mapper return pairs.
func (ex *surfaceExtractor) errorSites(n *FuncNode, values map[string]string, pairs map[string]SurfaceError) {
	mapsStatus := resultsIntString(ex.pkg, n.Decl)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			if callName(x) != "writeError" || len(x.Args) != 4 {
				return true
			}
			code, ok := ast.Unparen(x.Args[2]).(*ast.Ident)
			if !ok || !isPkgLevelStringConst(ex.pkg, code) {
				return true
			}
			status := exprPath(ast.Unparen(x.Args[1]))
			pairs[code.Name] = SurfaceError{Code: code.Name, Value: values[code.Name], Status: status}
		case *ast.ReturnStmt:
			if !mapsStatus || len(x.Results) != 2 {
				return true
			}
			code, ok := ast.Unparen(x.Results[1]).(*ast.Ident)
			if !ok || !isPkgLevelStringConst(ex.pkg, code) {
				return true
			}
			status := exprPath(ast.Unparen(x.Results[0]))
			pairs[code.Name] = SurfaceError{Code: code.Name, Value: values[code.Name], Status: status}
		}
		return true
	})
}

// localTypeName renders a named type declared in the serving package by
// bare name; anything else via renderWireType.
func localTypeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == SurfacePackage {
		return named.Obj().Name()
	}
	return renderWireType(t)
}

// renderWireType renders a payload type compactly: serving-package names
// stay bare, other module types keep their package, and composite types
// render structurally. The output is what the golden pins.
func renderWireType(t types.Type) string {
	qual := func(p *types.Package) string {
		if p == nil || p.Path() == SurfacePackage {
			return ""
		}
		return p.Name()
	}
	return types.TypeString(t, qual)
}

// wireStructs computes the transitive closure of serving-package named
// structs reachable from the endpoints' request and response types, and
// extracts their JSON shape in declaration order.
func (ex *surfaceExtractor) wireStructs(eps []SurfaceEndpoint) []SurfaceStruct {
	want := map[string]bool{}
	for _, ep := range eps {
		if ep.Request != "" {
			want[ep.Request] = true
		}
		for _, r := range ep.Responses {
			want[r.Type] = true
		}
	}
	// The error envelope is part of every endpoint's contract.
	want["ErrorBody"] = true

	// Index the package's struct declarations.
	decls := map[string]*ast.TypeSpec{}
	for _, f := range ex.pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					if _, isStruct := ts.Type.(*ast.StructType); isStruct {
						decls[ts.Name.Name] = ts
					}
				}
			}
		}
	}

	// Expand the closure: a wanted struct's fields can pull in more.
	var order []string
	added := map[string]bool{}
	var addStruct func(name string)
	addStruct = func(name string) {
		if added[name] {
			return
		}
		ts, ok := decls[name]
		if !ok {
			return
		}
		added[name] = true
		order = append(order, name)
		st := ts.Type.(*ast.StructType)
		for _, field := range st.Fields.List {
			for _, ref := range localStructRefs(ex.pkg, field.Type) {
				addStruct(ref)
			}
		}
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		addStruct(name)
	}
	sort.Strings(order)

	out := make([]SurfaceStruct, 0, len(order))
	for _, name := range order {
		ts := decls[name]
		ss := SurfaceStruct{Name: name, Pos: ts.Name.Pos()}
		st := ts.Type.(*ast.StructType)
		for _, field := range st.Fields.List {
			tag, hasTag := jsonTagOf(field)
			typeStr := ""
			if t := ex.pkg.TypeOf(field.Type); t != nil {
				typeStr = renderWireType(t)
			}
			for _, fname := range field.Names {
				if !ast.IsExported(fname.Name) {
					continue
				}
				if !hasTag {
					tag = "!untagged"
				}
				ss.Fields = append(ss.Fields, SurfaceField{
					Name: fname.Name, Tag: tag, Type: typeStr, Pos: fname.Pos(),
				})
			}
		}
		out = append(out, ss)
	}
	return out
}

// localStructRefs lists the serving-package named types a field type
// mentions (through pointers, slices, arrays, and maps).
func localStructRefs(pkg *Package, e ast.Expr) []string {
	var out []string
	t := pkg.TypeOf(e)
	if t == nil {
		return nil
	}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch x := t.(type) {
		case *types.Named:
			if x.Obj().Pkg() != nil && x.Obj().Pkg().Path() == SurfacePackage {
				out = append(out, x.Obj().Name())
			}
			walk(x.Underlying())
		case *types.Pointer:
			walk(x.Elem())
		case *types.Slice:
			walk(x.Elem())
		case *types.Array:
			walk(x.Elem())
		case *types.Map:
			walk(x.Key())
			walk(x.Elem())
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				walk(x.Field(i).Type())
			}
		}
	}
	walk(t)
	return out
}

// Lines renders the canonical spec as positioned lines — the unit the
// two-sided golden diff works in.
func (s *Surface) Lines() []SurfaceLine {
	var out []SurfaceLine
	add := func(pos token.Pos, format string, args ...any) {
		out = append(out, SurfaceLine{Text: fmt.Sprintf(format, args...), Pos: pos})
	}
	for _, c := range s.Codes {
		add(c.Pos, "code %s = %s (%s)", c.Value, c.Status, statusNum(c.Status))
	}
	for _, ep := range s.Endpoints {
		add(ep.Pos, "endpoint %s %s handler=%s", ep.Method, ep.Path, ep.Handler)
		if ep.Request != "" {
			add(ep.Pos, "endpoint %s %s request %s", ep.Method, ep.Path, ep.Request)
		}
		for _, r := range ep.Responses {
			add(ep.Pos, "endpoint %s %s response %s %s", ep.Method, ep.Path, r.Type, r.Status)
		}
		for _, e := range ep.Errors {
			add(ep.Pos, "endpoint %s %s error %s %s", ep.Method, ep.Path, e.Value, e.Status)
		}
	}
	for _, st := range s.Structs {
		add(st.Pos, "struct %s", st.Name)
		for _, f := range st.Fields {
			add(f.Pos, "struct %s field %s json=%s type=%s", st.Name, f.Name, f.Tag, f.Type)
		}
	}
	return out
}

// surfaceHeader documents the golden's provenance and re-bless workflow.
const surfaceHeader = `# tnserved v1 API surface — extracted by the apisurface gate (internal/lint).
# One line per fact: codes, endpoints (request/response/reachable errors),
# wire-struct fields. Any drift fails TestAPISurfaceGolden with file:line;
# review the diff, then re-bless deliberately with
#   go test ./internal/lint -run TestAPISurfaceGolden -update-apisurface
`

// Render produces the canonical spec text the golden pins.
func (s *Surface) Render() string {
	var sb strings.Builder
	sb.WriteString(surfaceHeader)
	for _, l := range s.Lines() {
		sb.WriteString(l.Text)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// DiffGolden compares the spec against golden text two-sided and returns
// one diagnostic per drifted line: additions cite the source file:line
// they were extracted from, removals cite the golden line that no longer
// matches anything in the source.
func (s *Surface) DiffGolden(golden string) []string {
	want := map[string]int{} // line text → golden line number
	for i, line := range strings.Split(golden, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if _, dup := want[line]; !dup {
			want[line] = i + 1
		}
	}
	got := s.Lines()
	gotSet := map[string]bool{}
	var diags []string
	for _, l := range got {
		gotSet[l.Text] = true
		if _, ok := want[l.Text]; !ok {
			pos := s.fset.Position(l.Pos)
			diags = append(diags, fmt.Sprintf("%s:%d: surface drift (not in v1.golden): %s",
				filepath.Base(pos.Filename), pos.Line, l.Text))
		}
	}
	type removed struct {
		line int
		text string
	}
	var gone []removed
	for text, line := range want {
		if !gotSet[text] {
			gone = append(gone, removed{line, text})
		}
	}
	sort.Slice(gone, func(i, j int) bool { return gone[i].line < gone[j].line })
	for _, r := range gone {
		diags = append(diags, fmt.Sprintf("v1.golden:%d: pinned surface entry no longer in source: %s", r.line, r.text))
	}
	sort.Strings(diags)
	return diags
}

// MarkdownTables renders the README's generated endpoint and error-code
// tables from the same spec the golden pins.
func (s *Surface) MarkdownTables() string {
	var sb strings.Builder
	sb.WriteString("| Method | Path | Request | Response |\n")
	sb.WriteString("|---|---|---|---|\n")
	for _, ep := range s.Endpoints {
		req := "—"
		if ep.Request != "" {
			req = "`" + ep.Request + "`"
		}
		resp := "—"
		if len(ep.Responses) > 0 {
			parts := make([]string, 0, len(ep.Responses))
			for _, r := range ep.Responses {
				parts = append(parts, fmt.Sprintf("`%s` (%s)", r.Type, statusNum(r.Status)))
			}
			resp = strings.Join(parts, ", ")
		}
		fmt.Fprintf(&sb, "| %s | `%s` | %s | %s |\n", ep.Method, ep.Path, req, resp)
	}
	sb.WriteString("\nError codes (every endpoint fails with the `{\"error\":{code,message}}` envelope):\n\n")
	sb.WriteString("| Code | HTTP status |\n")
	sb.WriteString("|---|---|\n")
	for _, c := range s.Codes {
		fmt.Fprintf(&sb, "| `%s` | %s |\n", c.Value, statusNum(c.Status))
	}
	return sb.String()
}
