// Command tnlint is the repo's determinism-and-correctness static analyzer
// suite. It machine-checks the invariants behind the chip↔Compass
// one-to-one equivalence claim (no unseeded randomness, no wall clock, no
// map-iteration-order leakage, no goroutines outside the sanctioned Compass
// worker pattern), the serving stack's real-time safety (no per-tick heap
// traffic in the kernel, no leakable goroutines), and whole-program
// concurrency protocol over the call graph (lock-order cycles and leaked
// locks, blocking under locks, channel ownership and close races, WaitGroup
// misuse, atomic/plain mixing). See internal/lint.
//
// Usage:
//
//	tnlint [-only a,b] [-skip a,b] [-<analyzer>=false] [-json] [-list] [-lockorder-out file] [-apisurface-out file] [packages]
//
// Every analyzer also has its own boolean flag (-hotalloc=false disables
// hotalloc); -only and -skip apply on top for CI one-liners, and an unknown
// name in either is a usage error. Packages are
// ./-relative patterns as for the go tool ("./...",
// "./internal/compass/...", "./internal/chip"); the default is ./... from
// the enclosing module root. Findings print as
//
//	file:line: analyzer: message
//
// or, with -json, as a JSON array of {file, line, column, analyzer,
// message} objects (always an array — "[]" when clean). With
// -lockorder-out, the rendered lock-order hierarchy (the same report the
// golden test pins) is additionally written to the named file — CI uploads
// it as a reviewable artifact; -apisurface-out does the same for the
// extracted v1 API surface spec (the report TestAPISurfaceGolden pins
// against testdata/apisurface/v1.golden). Findings are suppressed by a
// `//lint:ignore tnlint/<analyzer> reason` comment on the same or
// preceding line. Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"truenorth/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	skip := flag.String("skip", "", "comma-separated analyzer names to skip")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	list := flag.Bool("list", false, "list analyzers and exit")
	lockOrderOut := flag.String("lockorder-out", "", "write the rendered lock-order hierarchy to this file")
	apiSurfaceOut := flag.String("apisurface-out", "", "write the extracted v1 API surface spec to this file")
	all := lint.Analyzers()
	enabled := map[string]*bool{}
	for _, a := range all {
		enabled[a.Name] = flag.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	flag.Parse()

	analyzers, err := selectAnalyzers(all, *only, *skip, enabled)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnlint:", err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
			if a.Packages != nil {
				fmt.Printf("%-10s   applies to: %s\n", "", strings.Join(a.Packages, ", "))
			}
		}
		return 0
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "tnlint: no analyzers selected")
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnlint:", err)
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := resolve(loader, cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnlint:", err)
		return 2
	}

	var pkgs []*lint.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tnlint:", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}

	// The loader's cache now holds the targets plus every module-internal
	// dependency type-checking pulled in; handing those to the run as
	// call-graph context makes the interprocedural analyzers whole-module
	// even when only a subset of packages is being linted.
	diags := lint.RunWithContext(pkgs, loader.Loaded(), analyzers)
	if *lockOrderOut != "" || *apiSurfaceOut != "" {
		prog := lint.NewProgram(loader.Loaded())
		if *lockOrderOut != "" {
			g := lint.NewLockGraph(prog, lint.ConcurrencyPackages)
			if err := os.WriteFile(*lockOrderOut, []byte(g.Render()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "tnlint:", err)
				return 2
			}
		}
		if *apiSurfaceOut != "" {
			surf, err := lint.ExtractSurface(prog, loader.Loaded())
			if err != nil {
				fmt.Fprintln(os.Stderr, "tnlint:", err)
				return 2
			}
			if err := os.WriteFile(*apiSurfaceOut, []byte(surf.Render()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "tnlint:", err)
				return 2
			}
		}
	}
	rel := func(file string) string {
		if r, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return file
	}
	if *asJSON {
		if err := lint.WriteJSON(os.Stdout, diags, rel); err != nil {
			fmt.Fprintln(os.Stderr, "tnlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tnlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers applies the per-analyzer boolean flags, then -only/-skip.
// A name in -only or -skip that is not an analyzer is an error listing the
// valid names: a misspelled or retired name would otherwise select the full
// suite without a word.
func selectAnalyzers(all []*lint.Analyzer, only, skip string, enabled map[string]*bool) ([]*lint.Analyzer, error) {
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	set := func(flagName, csv string) (map[string]bool, error) {
		m := map[string]bool{}
		for _, n := range strings.Split(csv, ",") {
			if n = strings.TrimSpace(n); n == "" {
				continue
			}
			if !slices.Contains(names, n) {
				return nil, fmt.Errorf("-%s: unknown analyzer %q (valid: %s)", flagName, n, strings.Join(names, ", "))
			}
			m[n] = true
		}
		return m, nil
	}
	onlySet, err := set("only", only)
	if err != nil {
		return nil, err
	}
	skipSet, err := set("skip", skip)
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if on := enabled[a.Name]; on != nil && !*on {
			continue
		}
		if len(onlySet) > 0 && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// resolve expands go-style package patterns into module import paths.
func resolve(loader *lint.Loader, cwd string, patterns []string) ([]string, error) {
	all, err := loader.AllImportPaths()
	if err != nil {
		return nil, err
	}
	toImport := func(dir string) (string, error) {
		abs, err := filepath.Abs(filepath.Join(cwd, dir))
		if err != nil {
			return "", err
		}
		rel, err := filepath.Rel(loader.ModuleRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return "", fmt.Errorf("pattern %q is outside module %s", dir, loader.ModulePath)
		}
		if rel == "." {
			return loader.ModulePath, nil
		}
		return loader.ModulePath + "/" + filepath.ToSlash(rel), nil
	}
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			if rest == "." || rest == "" {
				rest = "."
			}
			prefix, err := toImport(rest)
			if err != nil {
				return nil, err
			}
			matched := false
			for _, p := range all {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("pattern %q matched no packages", pat)
			}
			continue
		}
		p, err := toImport(pat)
		if err != nil {
			return nil, err
		}
		add(p)
	}
	return out, nil
}
