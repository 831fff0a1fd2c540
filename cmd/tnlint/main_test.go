package main

import (
	"strings"
	"testing"

	"truenorth/internal/lint"
)

func names(as []*lint.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

func TestSelectAnalyzers(t *testing.T) {
	all := lint.Analyzers()
	off := false
	for _, tc := range []struct {
		name, only, skip string
		enabled          map[string]*bool
		want             []string // nil: the full suite
	}{
		{name: "default"},
		{name: "only", only: "lockorder, chanflow", want: []string{"lockorder", "chanflow"}},
		{name: "skip", skip: "detrand", want: names(all[1:])},
		{name: "flag", enabled: map[string]*bool{"detrand": &off}, want: names(all[1:])},
		{name: "only and skip", only: "goctx,wgsafe", skip: "wgsafe", want: []string{"goctx"}},
	} {
		got, err := selectAnalyzers(all, tc.only, tc.skip, tc.enabled)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := tc.want
		if want == nil {
			want = names(all)
		}
		if strings.Join(names(got), ",") != strings.Join(want, ",") {
			t.Errorf("%s: selected %v, want %v", tc.name, names(got), want)
		}
	}
}

func TestSelectAnalyzersRejectsUnknownNames(t *testing.T) {
	all := lint.Analyzers()
	for _, tc := range []struct{ only, skip, flag string }{
		{skip: "nosuch", flag: "-skip"},
		{skip: "chanown", flag: "-skip"},  // folded into chanflow
		{only: "locksafe", flag: "-only"}, // folded into lockorder and chanflow
		{only: "chanflow,typo", flag: "-only"},
	} {
		_, err := selectAnalyzers(all, tc.only, tc.skip, nil)
		if err == nil {
			t.Errorf("only=%q skip=%q: no error", tc.only, tc.skip)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, tc.flag+": unknown analyzer") || !strings.Contains(msg, strings.Join(names(all), ", ")) {
			t.Errorf("only=%q skip=%q: error %q does not name the flag and list the valid analyzers", tc.only, tc.skip, msg)
		}
	}
}
