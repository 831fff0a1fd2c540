// Package lint implements tnlint, the repo-specific static-analyzer suite
// that machine-checks these families of invariants:
//
// Determinism (behind the paper's one-to-one equivalence claim: the silicon
// model in internal/chip and the parallel Compass engine in internal/compass
// are bitwise-identical expressions of the same event-driven kernel):
//
//   - detrand:  no math/rand and no time.Now in kernel packages; random
//     choices go through truenorth/internal/prng with explicit seeds.
//   - maporder: no range over a map whose body has order-dependent effects
//     (append, channel send, spike delivery, output writes).
//   - floatcmp: no ==/!= between floating-point values in the neuron and
//     energy arithmetic paths (comparisons against exactly-representable
//     literal zero are allowed as divide-by-zero guards).
//   - ticksafe: goroutines only inside internal/compass, only as pool
//     workers (an inline func literal whose body is one `for … range ch`
//     loop calling Done() once per iteration) started outside the per-tick
//     hot functions, and those workers may write captured state only
//     through per-worker indexed slots.
//
// Real-time serving safety (behind the paper's f_max ≈ 1 kHz operating
// claim: the per-tick hot path must stay allocation-free and the session
// control plane must never stall it):
//
//   - hotalloc: no per-tick heap traffic in the kernel's hot functions —
//     fmt calls, make, slice/map or heap-escaping composite literals,
//     closures built inside per-tick loops, appends to buffers that are
//     never reslice-reused.
//   - goctx:    every goroutine spawned by the concurrency packages has a
//     shutdown arm (ctx.Done/close signal/closing flag), so sessions cannot
//     leak goroutines when they close.
//
// Whole-program concurrency (behind the same serving claims, checked over
// the module-wide call graph for the four concurrency packages; lockorder
// and chanflow share one held-lock walk and the Program's one blocking
// classifier):
//
//   - lockorder: lock discipline — per-function lock-acquisition summaries
//     propagate through the call graph into a global lock-order graph over
//     the named mutexes; a cycle (or a double Lock) is a potential deadlock
//     and is reported with its witness chain, and so is a return path that
//     leaves a lock held with no deferred unlock. The acyclic hierarchy is
//     checked in as testdata/lockorder/hierarchy.golden and reviewed like a
//     perfproof budget. Only field and package-level mutexes are named: a
//     double Lock of a local mutex goes unreported (the tree has none).
//   - chanflow:  channel and blocking discipline — nothing blocks (send,
//     receive, select without default, time.Sleep, Wait) while a mutex is
//     held, directly or through any callee; a channel is closed once, by
//     its owner (never a parameter or a receive-only channel); no send
//     after a close, in the same function or from another; no bare send on
//     a known-unbuffered channel.
//   - wgsafe:    the WaitGroup protocol — Add happens-before the spawning
//     go statement, no Add from inside a waited goroutine, no Wait-reuse
//     overlap between a waiting goroutine and later Adds.
//   - atomicmix: a variable accessed via sync/atomic anywhere must be
//     accessed atomically everywhere; both witness sites are cited.
//
// By-value copies of sync primitives are go vet's copylocks check, which
// check.sh runs over the whole module.
//
// Static API contract (behind the v1 serving surface: every route, wire
// shape, and reachable error code is extracted from the source and pinned
// in testdata/apisurface/v1.golden; see DESIGN.md §14):
//
//   - apienvelope: every handler error path goes through writeError with a
//     code registered in the codeStatus map at that code's canonical
//     status; no raw http.Error or bare WriteHeader escapes the envelope.
//   - wiretag: every exported field of a struct that crosses the wire has
//     an explicit json tag, and response types carry no map or interface
//     fields (their shape would be invisible to the surface golden).
//   - boundconv: call-graph-aware taint from client-controlled integers
//     (JSON body fields, strconv results) into narrowing conversions,
//     uint64 tick arithmetic, or make() sizes without an intervening range
//     guard — the trust-boundary bug class the serve layer exists to stop.
//
// A finding is suppressed by a directive on the same line or the line
// before:
//
//	//lint:ignore tnlint/<analyzer> reason
//
// The reason is mandatory; a directive without one is itself a finding.
// Every analyzer's detection behavior is pinned by want-comment fixtures
// under testdata/<analyzer>/ (see fixture_test.go), and each pinned catch
// has exactly one owning analyzer. Everything here is stdlib only:
// go/ast, go/parser, go/types.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"regexp"
	"sort"
	"strings"
)

// Module is the import-path root of this repository.
const Module = "truenorth"

// KernelPackages are the packages whose tick-domain behavior must be
// bitwise deterministic: the two engine expressions and the substrate they
// share, the core state machine and its parts, everything that constructs
// or feeds networks, and the entry points that drive them — a `cmd` that
// seeds from the wall clock breaks replayability just as surely as a kernel
// that does. A trailing "/..." entry matches every package under the prefix.
var KernelPackages = []string{
	Module + "/internal/chip",
	Module + "/internal/compass",
	Module + "/internal/sim",
	Module + "/internal/core",
	Module + "/internal/neuron",
	Module + "/internal/router",
	Module + "/internal/netgen",
	Module + "/internal/vision",
	Module + "/internal/experiments",
	Module + "/internal/modelcheck",
	Module + "/cmd/...",
}

// FanOutPackages are the kernel packages whose one-off construction may fan
// out over goroutines (ticksafe rule 1): netgen builds a network's cores in
// parallel, each from its own place in the frozen construction stream.
var FanOutPackages = []string{
	Module + "/internal/netgen",
}

// ArithmeticPackages hold the floating-point neuron/energy arithmetic that
// floatcmp guards.
var ArithmeticPackages = []string{
	Module + "/internal/neuron",
	Module + "/internal/energy",
}

// Package is one type-checked package under analysis. Info is best-effort:
// the checker runs in error-tolerant mode (imports outside the module are
// stubbed), so analyzers must degrade gracefully when a type is unresolved.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	// Prog is the module-local call graph the package was analyzed under;
	// set by Run/RunWithContext. Analyzers use it for interprocedural
	// checks and degrade to purely local analysis when it is nil.
	Prog *Program
}

// TypeOf returns the best-effort type of e, or nil.
func (p *Package) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ReportFunc records one finding at pos.
type ReportFunc func(pos token.Pos, format string, args ...any)

// Analyzer is one independently testable pass.
type Analyzer struct {
	Name string
	Doc  string
	// Packages lists the import paths the analyzer applies to; nil means
	// every package.
	Packages []string
	Run      func(pkg *Package, report ReportFunc)
}

func (a *Analyzer) applies(path string) bool {
	if a.Packages == nil {
		return true
	}
	for _, p := range a.Packages {
		if p == path {
			return true
		}
		if prefix, ok := strings.CutSuffix(p, "/..."); ok &&
			(path == prefix || strings.HasPrefix(path, prefix+"/")) {
			return true
		}
	}
	return false
}

// Analyzers returns the full tnlint suite: the four determinism analyzers,
// the two hot-path/goroutine-lifecycle analyzers, the four whole-program
// concurrency analyzers, and the three API-contract analyzers behind
// `make api-gate`.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Detrand(), MapOrder(), FloatCmp(), TickSafe(),
		HotAlloc(), GoCtx(),
		LockOrder(), ChanFlow(), WgSafe(), AtomicMix(),
		APIEnvelope(), WireTag(), BoundConv(),
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the canonical "file:line: analyzer: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteJSON renders diags as a JSON array (always an array — `[]` when
// clean, so CI consumers can gate on array length as well as exit status).
// rel, when non-nil, rewrites filenames (typically to repo-relative paths).
func WriteJSON(w io.Writer, diags []Diagnostic, rel func(string) string) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel != nil {
			file = rel(file)
		}
		out = append(out, jsonDiagnostic{
			File: file, Line: d.Pos.Line, Column: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ignoreRe matches a well-formed suppression directive.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+tnlint/([a-zA-Z0-9_-]+)\s+\S`)

// directive is one //lint:ignore comment, tracked so the stale-suppression
// audit can tell which directives still earn their keep.
type directive struct {
	pos      token.Pos
	analyzer string
	used     bool
}

// suppression records which analyzers are ignored at which lines of a file.
type suppression struct {
	// byLine maps a source line to the directives active there.
	byLine map[int]map[string]*directive
	// directives lists the file's directives in source order.
	directives []*directive
}

// suppressions scans a file's comments for lint:ignore directives. A
// directive suppresses matching findings on its own line and on the line
// after it. Malformed directives (no analyzer, no reason) are reported as
// findings of the pseudo-analyzer "ignore".
func suppressions(fset *token.FileSet, f *ast.File, malformed func(pos token.Pos, msg string)) *suppression {
	s := &suppression{byLine: map[int]map[string]*directive{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, "//lint:ignore") {
				continue
			}
			m := ignoreRe.FindStringSubmatch(text)
			if m == nil {
				malformed(c.Pos(), "malformed suppression directive: want //lint:ignore tnlint/<analyzer> reason")
				continue
			}
			d := &directive{pos: c.Pos(), analyzer: m[1]}
			s.directives = append(s.directives, d)
			line := fset.Position(c.Pos()).Line
			for _, l := range []int{line, line + 1} {
				if s.byLine[l] == nil {
					s.byLine[l] = map[string]*directive{}
				}
				if s.byLine[l][d.analyzer] == nil {
					s.byLine[l][d.analyzer] = d
				}
			}
		}
	}
	return s
}

// suppressed consumes a matching directive for a finding at line, marking
// it live for the stale audit.
func (s *suppression) suppressed(line int, analyzer string) bool {
	d := s.byLine[line][analyzer]
	if d == nil {
		return false
	}
	d.used = true
	return true
}

// Run applies analyzers to pkgs, honors suppression directives, and returns
// the surviving findings sorted by file, line, and analyzer. Purely local:
// interprocedural checks need the call-graph context of RunWithContext.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunWithContext(pkgs, nil, analyzers)
}

// RunWithContext is Run with extra call-graph context: context packages are
// not analyzed themselves, but their function bodies are part of the
// Program, so taint through helpers declared there reaches the analyzed
// packages' call sites. Passing every module package a target imports makes
// the interprocedural detrand/hotalloc/ticksafe checks whole-module.
//
// After all analyzers run, suppression directives that no finding consumed
// are themselves reported (pseudo-analyzer "ignore"): a stale //lint:ignore
// is a license nobody holds, and the tree must not accrete them. A
// directive is only audited when its analyzer actually ran on its package,
// so narrowed runs (-only) never produce false stale reports.
func RunWithContext(pkgs, context []*Package, analyzers []*Analyzer) []Diagnostic {
	all := make([]*Package, 0, len(pkgs)+len(context))
	all = append(all, pkgs...)
	seen := make(map[*Package]bool, len(pkgs))
	for _, p := range pkgs {
		seen[p] = true
	}
	for _, p := range context {
		if !seen[p] {
			all = append(all, p)
		}
	}
	prog := NewProgram(all)

	var diags []Diagnostic
	for _, pkg := range pkgs {
		pkg.Prog = prog
		sup := map[*ast.File]*suppression{}
		for _, f := range pkg.Files {
			sup[f] = suppressions(pkg.Fset, f, func(pos token.Pos, msg string) {
				diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(pos), Analyzer: "ignore", Message: msg})
			})
		}
		ran := map[string]bool{}
		for _, a := range analyzers {
			if !a.applies(pkg.Path) {
				continue
			}
			ran[a.Name] = true
			a.Run(pkg, func(pos token.Pos, format string, args ...any) {
				position := pkg.Fset.Position(pos)
				for _, f := range pkg.Files {
					if pkg.Fset.File(f.Pos()) == pkg.Fset.File(pos) &&
						sup[f].suppressed(position.Line, a.Name) {
						return
					}
				}
				diags = append(diags, Diagnostic{Pos: position, Analyzer: a.Name, Message: fmt.Sprintf(format, args...)})
			})
		}
		for _, f := range pkg.Files {
			for _, d := range sup[f].directives {
				if !d.used && ran[d.analyzer] {
					diags = append(diags, Diagnostic{
						Pos:      pkg.Fset.Position(d.pos),
						Analyzer: "ignore",
						Message: fmt.Sprintf(
							"stale suppression: no tnlint/%s finding on this or the next line; remove the directive", d.analyzer),
					})
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// importedName returns the local identifier under which file f imports
// path, or "" when it does not. Dot and blank imports return "".
func importedName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name != nil {
			if n := imp.Name.Name; n != "." && n != "_" {
				return n
			}
			return ""
		}
		// Default name: the last path element.
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	return ""
}

// terminalName returns the identifier a storage expression ultimately names:
// the field for a selector chain (s.outbox[w] → "outbox"), the variable for
// a plain or indexed identifier (out[dw] → "out"). It is the unit hotalloc
// uses to correlate buffer resets with appends; "" when the expression has
// no stable terminal (e.g. a call result).
func terminalName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// exprPath renders a lock/channel expression as a dotted path for messages
// and identity matching ("s.mu", "sub.ch"); "" for unrenderable expressions.
func exprPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := exprPath(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	case *ast.ParenExpr:
		return exprPath(x.X)
	case *ast.StarExpr:
		return exprPath(x.X)
	case *ast.IndexExpr:
		if base := exprPath(x.X); base != "" {
			return base + "[]"
		}
	}
	return ""
}

// isPkgSelector reports whether call target sel is a selection pkgName.fn on
// the package imported under pkgName, cross-checked against type info when
// available (so a local variable shadowing the package name doesn't match).
func isPkgSelector(pkg *Package, sel *ast.SelectorExpr, pkgName, fn string) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkgName || sel.Sel.Name != fn {
		return false
	}
	if pkg.Info != nil {
		if obj, ok := pkg.Info.Uses[id]; ok {
			_, isPkg := obj.(*types.PkgName)
			return isPkg
		}
	}
	return true
}
