// Command benchmark is the repository's one trusted benchmark: four
// workloads, end-to-end metrics with fixed regression bounds, and a traced
// run that times every layer from outside. BENCHMARK.json at the root of
// the repository lists the names; README.md in this directory defines them.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchmark/run.sh --repeat 2
//
// A run prints a report and, as the last line of standard output, one JSON
// object {correct, attempted, failed, metrics}. It exits non-zero when the
// run could not be made; an incorrect output is reported in the object.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed drives netgen and the request schedule when --seed is absent.
const defaultSeed = 20140613

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// root is the repository root; buildDir is where the run may write.
	root, buildDir string
	// serverBin is the tnserved to spawn for the serving workloads.
	serverBin string
	// tiny selects the smoke-test sizes and a single set-up per run.
	tiny bool
}

// reps is how often a run sets the system up.
func (c runConfig) reps(n int) int {
	if c.tiny {
		return 1
	}
	return n
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// runWorkload makes one run and returns its report.
func runWorkload(cfg runConfig, name string) (*report, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if cfg.tiny {
		w = w.tiny()
	}
	if err := os.MkdirAll(filepath.Join(cfg.buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	r := newReport(w.name, cfg.seed, cfg.traced)
	before := calibrate()
	provenance(r, cfg.root, cfg.seconds, before)

	var err error
	if cfg.traced {
		err = runTraced(cfg, w, r, before)
	} else {
		err = w.run(cfg, w, r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.infof("host after: %s", calibrate())
	checkRecordedFingerprint(cfg, r)
	return r, nil
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", defaultSeed, "seed of the generated model and request schedule")
	seconds := flag.Float64("seconds", 0, "how long to measure (default run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := flag.String("root", "..", "repository root")
	repeat := flag.Int("repeat", 0, "run every workload this many times, alternating order, and compare the sets")
	flag.Parse()

	// The host rule: the load generator never has more than two threads.
	runtime.GOMAXPROCS(benchProcs())

	s, err := loadSpec(*root)
	if err != nil {
		fail(err)
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, traced: *trace != 0,
		root: *root, buildDir: filepath.Join(*root, ".bench_build"),
	}
	cfg.serverBin = filepath.Join(cfg.buildDir, "bin", "tnserved")
	if cfg.seconds <= 0 {
		cfg.seconds = float64(s.RunSeconds)
	}

	if *repeat > 0 {
		if err := runRepeat(cfg, s, *repeat); err != nil {
			fail(err)
		}
		return
	}
	r, err := runWorkload(cfg, *name)
	if err != nil {
		fail(err)
	}
	if err := r.print(os.Stdout, s); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
