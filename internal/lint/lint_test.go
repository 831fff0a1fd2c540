package lint

import (
	"strings"
	"testing"
)

// Detection behavior is pinned by the want-comment fixtures under
// testdata/<analyzer>/ (see fixture_test.go). This file tests the
// framework itself: package-pattern matching, suppression directives,
// diagnostic formatting, and JSON output.

// analyze runs one analyzer over an inline source snippet compiled as
// importPath and returns the surviving diagnostics.
func analyze(t *testing.T, a *Analyzer, importPath, src string) []Diagnostic {
	t.Helper()
	pkg, err := CheckSource(importPath, map[string]string{"fixture.go": src})
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return Run([]*Package{pkg}, []*Analyzer{a})
}

// expect asserts exactly n findings, all from analyzer name and all
// containing substr.
func expect(t *testing.T, diags []Diagnostic, n int, name, substr string) {
	t.Helper()
	if len(diags) != n {
		t.Fatalf("got %d findings, want %d: %v", len(diags), n, diags)
	}
	for _, d := range diags {
		if d.Analyzer != name {
			t.Fatalf("finding from %q, want %q: %v", d.Analyzer, name, d)
		}
		if !strings.Contains(d.Message, substr) {
			t.Fatalf("finding %q does not mention %q", d.Message, substr)
		}
	}
}

const kernelPath = Module + "/internal/chip"

func TestAnalyzersSuite(t *testing.T) {
	want := []string{
		"detrand", "maporder", "floatcmp", "ticksafe",
		"hotalloc", "goctx",
		"lockorder", "chanflow", "wgsafe", "atomicmix",
		"apienvelope", "wiretag", "boundconv",
	}
	all := Analyzers()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}

func TestPackagePatternMatching(t *testing.T) {
	a := &Analyzer{Packages: []string{Module + "/internal/chip", Module + "/cmd/..."}}
	for path, want := range map[string]bool{
		Module + "/internal/chip":    true,  // exact entry
		Module + "/internal/neuron":  false, // no entry
		Module + "/cmd":              true,  // pattern root
		Module + "/cmd/tnsim":        true,  // under pattern
		Module + "/cmd/tnsim/sub":    true,  // nested under pattern
		Module + "/cmdextra":         false, // prefix must end at a path boundary
		Module + "/internal/cmdtool": false,
	} {
		if got := a.applies(path); got != want {
			t.Errorf("applies(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestSuppressionDirective(t *testing.T) {
	diags := analyze(t, Detrand(), kernelPath, `
package chip

import "time"

func measured() int64 {
	//lint:ignore tnlint/detrand benchmarking wall time is the point here
	return time.Now().UnixNano()
}
`)
	expect(t, diags, 0, "", "")
}

func TestSuppressionSameLine(t *testing.T) {
	diags := analyze(t, Detrand(), kernelPath, `
package chip

import "time"

func measured() int64 {
	return time.Now().UnixNano() //lint:ignore tnlint/detrand timing harness
}
`)
	expect(t, diags, 0, "", "")
}

func TestSuppressionWrongAnalyzerDoesNotApply(t *testing.T) {
	diags := analyze(t, Detrand(), kernelPath, `
package chip

import "time"

func measured() int64 {
	//lint:ignore tnlint/maporder wrong analyzer name
	return time.Now().UnixNano()
}
`)
	expect(t, diags, 1, "detrand", "time.Now")
}

func TestSuppressionWithoutReasonIsAFinding(t *testing.T) {
	diags := analyze(t, Detrand(), kernelPath, `
package chip

import "time"

func measured() int64 {
	//lint:ignore tnlint/detrand
	return time.Now().UnixNano()
}
`)
	// The malformed directive is reported and does not suppress.
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2 (malformed directive + original): %v", len(diags), diags)
	}
	if diags[0].Analyzer != "ignore" || !strings.Contains(diags[0].Message, "malformed") {
		t.Fatalf("first finding should be the malformed directive: %v", diags[0])
	}
	if diags[1].Analyzer != "detrand" {
		t.Fatalf("second finding should be the unsuppressed detrand: %v", diags[1])
	}
}

func TestSuppressionOfNewAnalyzers(t *testing.T) {
	diags := analyze(t, HotAlloc(), kernelPath, `
package chip

func Step(n int) {
	//lint:ignore tnlint/hotalloc ablation arm pays per-tick costs on purpose
	buf := make([]int, n)
	_ = buf
}
`)
	expect(t, diags, 0, "", "")
}

func TestDiagnosticFormat(t *testing.T) {
	diags := analyze(t, Detrand(), kernelPath, `
package chip

import "math/rand"

var _ = rand.Int
`)
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1", len(diags))
	}
	if got := diags[0].String(); got != "fixture.go:4: detrand: kernel package imports math/rand; use truenorth/internal/prng with an explicit seed" {
		t.Fatalf("diagnostic format = %q", got)
	}
}

func TestWriteJSON(t *testing.T) {
	diags := analyze(t, Detrand(), kernelPath, `
package chip

import "math/rand"

var _ = rand.Int
`)
	var sb strings.Builder
	if err := WriteJSON(&sb, diags, func(f string) string { return "rel/" + f }); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`"file": "rel/fixture.go"`,
		`"line": 4`,
		`"analyzer": "detrand"`,
		`"message": "kernel package imports math/rand`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("JSON output missing %q:\n%s", want, got)
		}
	}
}

func TestWriteJSONEmptyIsArray(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, nil, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sb.String()) != "[]" {
		t.Fatalf("clean run must encode as an empty array, got %q", sb.String())
	}
}
