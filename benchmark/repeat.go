package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// fingerprintKey names one recorded fingerprint.
func fingerprintKey(r *report) string {
	kind := "untraced"
	if r.traced {
		kind = "traced"
	}
	return fmt.Sprintf("%s %d %s", r.workload, r.seed, kind)
}

// checkRecordedFingerprint compares the run's fingerprint with the one
// baseline/fingerprints.json records for the same workload, seed and kind
// of run, if any: a change that only claims speed must reproduce its
// parent's spikes and counters exactly.
func checkRecordedFingerprint(cfg runConfig, r *report) {
	if cfg.tiny {
		return
	}
	raw, err := os.ReadFile(filepath.Join(cfg.root, "benchmark", "baseline", "fingerprints.json"))
	if err != nil {
		return
	}
	var recorded map[string]string
	if err := json.Unmarshal(raw, &recorded); err != nil {
		r.problemf("baseline/fingerprints.json: %v", err)
		return
	}
	if want, ok := recorded[fingerprintKey(r)]; ok && want != r.fingerprint {
		r.problemf("fingerprint differs from the recorded one:\n  got  %s\n  want %s", r.fingerprint, want)
	}
}

// runRepeat runs every workload `sets` times, untraced, reversing the order
// on every other set, and fails if two consecutive sets disagree: on an
// end-to-end metric by more than its bound, or on a fingerprint at all.
func runRepeat(cfg runConfig, s *spec, sets int) error {
	cfg.traced = false
	results := make([]map[string]*report, sets)
	for set := range results {
		results[set] = map[string]*report{}
		for i := range workloads {
			w := workloads[i]
			if set%2 == 1 {
				w = workloads[len(workloads)-1-i]
			}
			r, err := runWorkload(cfg, w.name)
			if err != nil {
				return err
			}
			if err := r.print(os.Stdout, s); err != nil {
				return err
			}
			results[set][w.name] = r
		}
	}
	var violations []string
	for set := 1; set < sets; set++ {
		for _, w := range workloads {
			a, b := results[set-1][w.name], results[set][w.name]
			for _, r := range []*report{a, b} {
				if !r.correct() || r.failed > 0 {
					violations = append(violations, fmt.Sprintf("%s: incorrect or failed ops", w.name))
				}
			}
			if a.fingerprint != b.fingerprint {
				violations = append(violations, fmt.Sprintf("%s: fingerprints differ between sets %d and %d", w.name, set, set+1))
			}
			for _, m := range s.EndToEnd {
				worse := (b.values[m.Name] - a.values[m.Name]) / a.values[m.Name]
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if worse > m.Bound {
					verdict = "OUT OF BOUND"
					violations = append(violations, fmt.Sprintf("%s %s: %.6g then %.6g, %.1f%% worse, bound %g%%",
						w.name, m.Name, a.values[m.Name], b.values[m.Name], worse*100, m.Bound*100))
				}
				fmt.Printf("repeat %-13s %-20s %14.6g %14.6g %+7.2f%% worse (bound %g%%) %s\n",
					w.name, m.Name, a.values[m.Name], b.values[m.Name], worse*100, m.Bound*100, verdict)
			}
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("sets disagree:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}
