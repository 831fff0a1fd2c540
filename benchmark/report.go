package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec mirrors BENCHMARK.json at the root of the repository: the one list
// of workload names, metric names, units and regression bounds. The
// program holds no second copy — a value reported under a name the file
// does not list, or a listed name left unreported, fails the run.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metrics returns the list a run of the given kind must report in full.
func (s *spec) metrics(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// report collects what one run of one workload measured.
type report struct {
	workload string
	seed     int64
	traced   bool

	values map[string]float64
	notes  map[string]string // shown beside the value: quartiles, sample count, caveats
	info   []string          // provenance and figures that are not metrics of this run kind

	attempted, failed int
	problems          []string // each is a correctness failure
	fingerprint       string
}

func newReport(workload string, seed int64, traced bool) *report {
	return &report{
		workload: workload, seed: seed, traced: traced,
		values: map[string]float64{}, notes: map[string]string{},
	}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// resultLine is the machine-readable last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report followed by the result line. It
// fails when the run's metrics are not exactly the ones BENCHMARK.json
// lists for this kind of run.
func (r *report) print(w io.Writer, s *spec) error {
	want := s.metrics(r.traced)
	listed := map[string]bool{}
	var missing []string
	for _, m := range want {
		listed[m.Name] = true
		if _, ok := r.values[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	var extra []string
	for name := range r.values {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("metrics differ from BENCHMARK.json: not reported %v, not listed %v", missing, extra)
	}

	kind := "end-to-end"
	if r.traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# workload %s, seed %d, %s metrics\n", r.workload, r.seed, kind)
	for _, line := range r.info {
		fmt.Fprintf(w, "# %s\n", line)
	}
	res := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, m := range want {
		v := r.values[m.Name]
		line := fmt.Sprintf("%-34s %16.6g %-12s", m.Name, v, m.Unit)
		if m.Bound > 0 {
			line += fmt.Sprintf(" %s is better, bound %g%%", m.Better, m.Bound*100)
		}
		if note := r.notes[m.Name]; note != "" {
			line += "  [" + note + "]"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
		res.Metrics[m.Name] = resultValue{Value: v, Unit: m.Unit}
	}
	fmt.Fprintf(w, "ops %d, failed_ops %d\n", r.attempted, r.failed)
	if r.fingerprint != "" {
		fmt.Fprintf(w, "fingerprint %s\n", r.fingerprint)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "INCORRECT: %s\n", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
