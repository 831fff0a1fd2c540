package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// tnexp runs the command in-process and returns its stdout, failing t on
// a non-zero exit.
func tnexp(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("tnexp %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

// TestTablesAreDeterministic is the repo's core invariant at the command
// line: the counted and modelled tables print the same bytes on every run,
// whatever the Compass worker count (GOMAXPROCS).
func TestTablesAreDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	args := []string{"-ticks", "100", "faults", "topology", "future", "regress"}
	first := tnexp(t, args...)
	runtime.GOMAXPROCS(4)
	if second := tnexp(t, args...); second != first {
		t.Fatalf("two runs differ:\n--- first\n%s\n--- second\n%s", first, second)
	}
	for _, want := range []string{"## Fault tolerance", "## Communication topology", "## Section VII",
		"All 4 regressions matched spike-for-spike over 100 ticks", "## Section VI-A"} {
		if !strings.Contains(first, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestFig5AndFig6ShareOneCharacterization checks that naming both tables
// runs the 88-network sweep once.
func TestFig5AndFig6ShareOneCharacterization(t *testing.T) {
	out := tnexp(t, "-grid", "4", "fig5", "fig6")
	if n := strings.Count(out, "Characterizing 88 recurrent networks on a 4x4 grid"); n != 1 {
		t.Fatalf("characterization ran %d times, want 1", n)
	}
	for _, want := range []string{"## Fig 5a", "## Fig 5f", "## Headline", "## Power breakdown", "## Fig 6a", "## Fig 6d"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"faults", "fig9"}, `unknown table "fig9" (valid: fig5, fig6, fig7, fig8, fig8-measured, regress, future, faults, topology)`},
		{nil, "tables: fig5, fig6, fig7, fig8, fig8-measured, regress, future, faults, topology"},
		{[]string{"-steps", "2000", "regress"}, "flag provided but not defined: -steps"},
		{[]string{"-ticks", "0", "regress"}, "-ticks must be at least 1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("tnexp %q: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("tnexp %q: printed tables before rejecting its arguments:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("tnexp %q: stderr %q does not contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}
