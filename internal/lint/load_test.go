package lint

import (
	"go/types"
	"testing"
)

func newRepoLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModulePath != Module {
		t.Fatalf("module path = %q, want %q", l.ModulePath, Module)
	}
	return l
}

func TestLoaderFindsAllPackages(t *testing.T) {
	l := newRepoLoader(t)
	paths, err := l.AllImportPaths()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		Module:                       false, // root package (doc.go)
		Module + "/internal/chip":    false,
		Module + "/internal/compass": false,
		Module + "/cmd/tnlint":       false,
	}
	for _, p := range paths {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("AllImportPaths missing %s", p)
		}
	}
}

// TestLoaderResolvesModuleTypes verifies the loader's central property:
// types declared inside the module resolve for real (here: a map field of a
// struct from another internal package), which is what maporder and
// floatcmp depend on.
func TestLoaderResolvesModuleTypes(t *testing.T) {
	l := newRepoLoader(t)
	pkg, err := l.Load(Module + "/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tv := range pkg.Info.Types {
		if m, ok := tv.Type.(*types.Map); ok && m.Key().String() == Module+"/internal/router.Point" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("the substrate's map[router.Point]bool did not type-check to a cross-package map type")
	}
}

// TestRepoLintsClean is the enforced invariant itself: every kernel and
// arithmetic package passes the full analyzer suite. If this fails, either
// fix the finding or add a //lint:ignore tnlint/<name> directive with a
// reason.
func TestRepoLintsClean(t *testing.T) {
	l := newRepoLoader(t)
	paths, err := l.AllImportPaths()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("%s", d)
	}
}
