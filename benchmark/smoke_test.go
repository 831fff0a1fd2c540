package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at tiny sizes with
// the server in-process, and checks the report against BENCHMARK.json: every
// metric of the run's kind is printed exactly once with its unit, the result
// line parses, outputs are correct, and the trace is well-formed.
func TestSmoke(t *testing.T) {
	const root = ".."
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric{}, s.EndToEnd...), s.PerLayer...) {
		if !name.MatchString(m.Name) || m.Unit == "" || seen[m.Name] {
			t.Errorf("BENCHMARK.json: metric %q (unit %q) is malformed or listed twice", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}

	cfg := runConfig{seed: defaultSeed, seconds: 0.6, root: root, buildDir: t.TempDir(), tiny: true}
	for _, sw := range s.Workloads {
		if !name.MatchString(sw.Name) {
			t.Errorf("workload name %q", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			cfg.traced = traced
			r, err := runWorkload(cfg, sw.Name)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sw.Name, traced, err)
			}
			var out bytes.Buffer
			if err := r.print(&out, s); err != nil {
				t.Fatalf("%s traced=%v: %v", sw.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, m := range s.metrics(traced) {
				printed := 0
				for _, line := range lines {
					if f := strings.Fields(line); len(f) >= 3 && f[0] == m.Name && f[2] == m.Unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s traced=%v: metric %s printed %d times with its unit", sw.Name, traced, m.Name, printed)
				}
			}
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", sw.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(s.metrics(traced)) {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d metrics=%d\n%s",
					sw.Name, traced, res.Correct, res.Failed, res.Attempted, len(res.Metrics), out.String())
			}
		}
		checkTrace(t, filepath.Join(cfg.buildDir, "trace", sw.Name+"-20140613.json"))
	}
}

// checkTrace parses a trace file and checks that every span closes after
// it opens and names a parent that exists.
func checkTrace(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	ids := map[int]bool{0: true}
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if !ids[s.Parent] || s.End < s.Start || s.Name == "" {
			t.Errorf("%s: bad span %+v", path, s)
		}
	}
}
