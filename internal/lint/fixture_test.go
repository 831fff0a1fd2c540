package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestAnalyzerFixtures pins every analyzer's detection behavior with
// want-comment fixtures under testdata/<analyzer>/. Each fixture file is
// compiled as its own single-file package and annotated inline:
//
//	ch <- 1 // want `bare send on unbuffered channel`
//
// A `// want` comment carries one or more quoted regexps; every expected
// diagnostic must be reported on that line, and every reported diagnostic
// must be expected. A fixture without want comments is a negative fixture:
// the analyzer must stay silent on it. Fixtures compile under the first
// package path the analyzer applies to; a fixture that needs a different
// path (proving an analyzer ignores out-of-scope packages, or exercising
// the Compass-only goroutine rules) overrides it with a first-line
//
//	//lintfixture:package <import-path>
//
// directive. The harness fails if an analyzer has no fixture directory or
// no fixture files — detection regressions and missing coverage both fail
// `go test`.
//
// The corpus is also the suite's catch matrix: every fixture runs through
// every other analyzer that applies at its package path, and a want line
// that a second analyzer also reports fails. Each pinned catch has exactly
// one owner, so a rule duplicated across analyzers shows up here, not as a
// doubled finding on the tree.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", a.Name)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("analyzer %q has no fixture directory: %v", a.Name, err)
			}
			ran := 0
			for _, e := range entries {
				if e.IsDir() {
					ran++
					name := e.Name()
					t.Run(name, func(t *testing.T) {
						runMultiFixture(t, a, filepath.Join(dir, name))
					})
					continue
				}
				if !strings.HasSuffix(e.Name(), ".go") {
					continue
				}
				ran++
				runFixture(t, a, filepath.Join(dir, e.Name()))
			}
			if ran == 0 {
				t.Fatalf("analyzer %q has no fixture files in %s", a.Name, dir)
			}
		})
	}
}

const fixtureDirective = "//lintfixture:package "

// wantArgRe extracts the quoted regexps of one want comment.
var wantArgRe = regexp.MustCompile("[\"`]([^\"`]+)[\"`]")

// wantExpectation is one expected diagnostic.
type wantExpectation struct {
	re      *regexp.Regexp
	matched bool
}

func runFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	lines := strings.Split(src, "\n")

	importPath := fixtureImportPath(a)
	if len(lines) > 0 && strings.HasPrefix(lines[0], fixtureDirective) {
		importPath = strings.TrimSpace(strings.TrimPrefix(lines[0], fixtureDirective))
	}

	wants := parseWants(t, path, lines)

	pkg, err := CheckSource(importPath, map[string]string{filepath.Base(path): src})
	if err != nil {
		t.Fatalf("%s: parse: %v", path, err)
	}
	for _, d := range Run([]*Package{pkg}, []*Analyzer{a}) {
		matched := false
		for _, w := range wants[d.Pos.Line] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic [%s] %s", path, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	var missed []string
	for line, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				missed = append(missed, fmt.Sprintf("%s:%d: expected diagnostic matching %q was not reported", path, line, w.re))
			}
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Error(m)
	}
	checkSoleOwner(t, a, []*Package{pkg}, func(_ string, line int) bool { return len(wants[line]) > 0 })
}

// runMultiFixture runs one directory-based multi-package fixture: every
// .go file in dir declares its package with a first-line
// //lintfixture:package directive, files group into packages that may
// import each other, and the analyzer runs over all of them with full
// call-graph context — the harness for the interprocedural taint rules,
// where the hazard lives one or two calls away from the reported site.
// Want comments work exactly as in single-file fixtures, matched per file.
func runMultiFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]map[string]string{}
	wants := map[string]map[int][]*wantExpectation{}
	nfiles := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		nfiles++
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		lines := strings.Split(src, "\n")
		if len(lines) == 0 || !strings.HasPrefix(lines[0], fixtureDirective) {
			t.Fatalf("%s: multi-package fixture files need a first-line %s<import-path> directive", path, fixtureDirective)
		}
		importPath := strings.TrimSpace(strings.TrimPrefix(lines[0], fixtureDirective))
		if sources[importPath] == nil {
			sources[importPath] = map[string]string{}
		}
		if _, dup := sources[importPath][e.Name()]; dup {
			t.Fatalf("%s: duplicate filename in package %s", path, importPath)
		}
		sources[importPath][e.Name()] = src
		wants[e.Name()] = parseWants(t, path, lines)
	}
	if nfiles == 0 {
		t.Fatalf("multi-package fixture %s has no .go files", dir)
	}
	pkgs, err := CheckPackages(sources)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	for _, d := range RunWithContext(pkgs, nil, []*Analyzer{a}) {
		file := filepath.Base(d.Pos.Filename)
		matched := false
		for _, w := range wants[file][d.Pos.Line] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s/%s:%d: unexpected diagnostic [%s] %s", dir, file, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	var missed []string
	for file, fileWants := range wants {
		for line, ws := range fileWants {
			for _, w := range ws {
				if !w.matched {
					missed = append(missed, fmt.Sprintf("%s/%s:%d: expected diagnostic matching %q was not reported", dir, file, line, w.re))
				}
			}
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Error(m)
	}
	checkSoleOwner(t, a, pkgs, func(file string, line int) bool { return len(wants[file][line]) > 0 })
}

// parseWants collects the want comments of one fixture file by line.
func parseWants(t *testing.T, path string, lines []string) map[int][]*wantExpectation {
	t.Helper()
	wants := map[int][]*wantExpectation{}
	for i, line := range lines {
		idx := strings.Index(line, "// want ")
		if idx < 0 {
			continue
		}
		args := wantArgRe.FindAllStringSubmatch(line[idx+len("// want "):], -1)
		if len(args) == 0 {
			t.Fatalf("%s:%d: malformed want comment (need quoted regexps)", path, i+1)
		}
		for _, m := range args {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
			}
			wants[i+1] = append(wants[i+1], &wantExpectation{re: re})
		}
	}
	return wants
}

// checkSoleOwner runs every analyzer but a over a fixture's packages (each
// applies only where its package scope says) and fails on any finding that
// lands on a want line: that catch is pinned to a, so a second reporter is
// a duplicated rule.
func checkSoleOwner(t *testing.T, a *Analyzer, pkgs []*Package, wanted func(file string, line int) bool) {
	t.Helper()
	var others []*Analyzer
	for _, b := range Analyzers() {
		if b.Name != a.Name {
			others = append(others, b)
		}
	}
	for _, d := range RunWithContext(pkgs, nil, others) {
		if d.Analyzer != "ignore" && wanted(filepath.Base(d.Pos.Filename), d.Pos.Line) {
			t.Errorf("%s:%d: want line of %s is also reported by %s: %s",
				filepath.Base(d.Pos.Filename), d.Pos.Line, a.Name, d.Analyzer, d.Message)
		}
	}
}

// fixtureImportPath picks the package path fixtures compile under: the
// first path the analyzer applies to (sans /... wildcard), or a neutral
// module path for analyzers that apply everywhere.
func fixtureImportPath(a *Analyzer) string {
	if len(a.Packages) == 0 {
		return Module + "/internal/fixture"
	}
	return strings.TrimSuffix(a.Packages[0], "/...")
}
