package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"truenorth/internal/chip"
	"truenorth/internal/compass"
	"truenorth/internal/modelcheck"
	"truenorth/internal/netgen"
	"truenorth/internal/sim"
)

// How often a run sets the system up; setup_s is the median. A batch
// set-up takes seconds and its median of three is steady; a serving set-up
// takes a tenth of that, so more of them are needed, and affordable.
const (
	batchSetupReps = 3
	serveSetupReps = 7
)

// fingerprintWindows is the fixed number of window pairs after which a
// batch run takes its fingerprint, so that the fingerprint does not depend
// on how many windows fit into --seconds.
const fingerprintWindows = 2

// built is a workload's verified model and how long each step took.
type built struct {
	network
	buildS, verifyS float64
}

// buildVerified generates the workload's model and passes it through the
// static verifier, as every tool that accepts a model does.
func buildVerified(w workload, seed int64, probe bool, tr *tracer) (b built, err error) {
	p := w.params(seed)
	b.mesh = p.Grid
	b.buildS = tr.timed("netgen.Build", 0, 0, func() { b.cfgs, err = netgen.Build(p) }).Seconds()
	if err != nil {
		return b, err
	}
	if probe {
		addProbePath(b.network)
	}
	b.verifyS = tr.timed("modelcheck.Verify", 0, 0, func() {
		err = modelcheck.Verify(b.mesh, b.cfgs, modelcheck.Options{AssumeExternalInput: true})
	}).Seconds()
	return b, err
}

// timedWindow is one timed window of an arm.
type timedWindow struct {
	tickNs []float64     // duration of every Step
	busy   time.Duration // their sum: what happens between ticks is not in it
	cpu    time.Duration // user+system time of this process over the window
}

func (w timedWindow) ticksPerS() float64 { return float64(len(w.tickNs)) / w.busy.Seconds() }

// arm is one engine being stepped tick by tick, with the digest of what
// it has emitted.
type arm struct {
	eng     sim.Engine
	digest  *streamDigest
	ticks   int
	windows []timedWindow

	// Set by traced runs only.
	beforeTick func(i int)       // runs untimed before tick i of a window
	keep       bool              // retain the drained outputs
	outputs    []sim.OutputSpike // when keep is set
	drainNs    float64           // time spent in DrainOutputs after windows
}

func (a *arm) settle(ticks int) {
	a.eng.Run(ticks)
	a.digest.add(a.eng.DrainOutputs())
}

// window steps the arm through one timed window, timing every Step on its
// own.
func (a *arm) window(ticks int, tr *tracer, name string) timedWindow {
	w := timedWindow{tickNs: make([]float64, 0, ticks)}
	cpu0, _ := procCPU(os.Getpid())
	for i := 0; i < ticks; i++ {
		if a.beforeTick != nil {
			a.beforeTick(i)
		}
		start := time.Now()
		sp := tr.begin(name, 0, int64(a.eng.Tick()))
		a.eng.Step()
		tr.end(sp)
		d := time.Since(start)
		w.tickNs = append(w.tickNs, float64(d))
		w.busy += d
	}
	cpu1, _ := procCPU(os.Getpid())
	w.cpu = cpu1 - cpu0
	a.windows = append(a.windows, w)
	a.ticks += ticks
	start := time.Now()
	out := a.eng.DrainOutputs()
	a.drainNs += float64(time.Since(start))
	if a.keep {
		a.outputs = append(a.outputs, out...)
	}
	a.digest.add(out)
	return w
}

// quietest returns the window with the highest rate. The engines are
// single-threaded and deterministic, so whatever else runs on a shared host
// can only slow a window down: the fastest of many short windows is the
// estimate of the undisturbed rate that moves least when a neighbour's load
// comes and goes, which on this kind of host it does within seconds.
func (a *arm) quietest() timedWindow { return quietest(a.windows) }

func quietest(windows []timedWindow) timedWindow {
	best := windows[0]
	for _, w := range windows[1:] {
		if w.ticksPerS() > best.ticksPerS() {
			best = w
		}
	}
	return best
}

// rates returns every window's ticks per second.
func (a *arm) rates() []float64 {
	out := make([]float64, len(a.windows))
	for i, w := range a.windows {
		out[i] = w.ticksPerS()
	}
	return out
}

// busy is the time the arm has spent inside timed Steps.
func (a *arm) busy() time.Duration {
	var sum time.Duration
	for _, w := range a.windows {
		sum += w.busy
	}
	return sum
}

// batchSetup builds the model and both engines and settles them. It is
// what setup_s times on the batch workloads.
func batchSetup(w workload, seed int64) (chipArm, compassArm *arm, err error) {
	// A collection after each step keeps the peak resident set that of the
	// live data; left to its own pacing the collector lets the heap overshoot
	// by the verifier's garbage on some runs and not on others.
	m, err := buildVerified(w, seed, true, nil)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	ce, err := chip.New(m.mesh, m.cfgs)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	se, err := compass.New(m.mesh, m.cfgs, sim.WithWorkers(1))
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	chipArm = &arm{eng: ce, digest: newStreamDigest()}
	compassArm = &arm{eng: se, digest: newStreamDigest()}
	chipArm.settle(w.settle)
	compassArm.settle(w.settle)
	return chipArm, compassArm, nil
}

// compareArms checks §VI-A on what the run just did: both expressions of
// the kernel must agree on every counter and on the output stream.
func compareArms(r *report, a, b *arm) {
	if a.eng.Counters() != b.eng.Counters() {
		r.problemf("chip and compass counters differ: %+v vs %+v", a.eng.Counters(), b.eng.Counters())
	}
	if a.eng.NoC() != b.eng.NoC() {
		r.problemf("chip and compass NoC statistics differ: %+v vs %+v", a.eng.NoC(), b.eng.NoC())
	}
	if a.digest.sum() != b.digest.sum() {
		r.problemf("chip and compass output streams differ: %s vs %s", a.digest.sum(), b.digest.sum())
	}
}

// runBatch is the untraced run of a batch workload: interleaved windows on
// the chip model and on Compass at one worker, the same ticks on both.
func runBatch(cfg runConfig, w workload, r *report) error {
	var setups []float64
	var chipArm, compassArm *arm
	for i := 0; i < cfg.reps(batchSetupReps); i++ {
		chipArm, compassArm = nil, nil
		// Each repetition starts from a collected heap, so that peak
		// memory is that of one set-up and not of the garbage of three.
		runtime.GC()
		debug.FreeOSMemory()
		if i == 0 {
			// Start the peak-RSS watermark afresh: under --repeat this
			// process has already run other workloads. (Linux: "5" resets
			// VmHWM.)
			os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // without it the peak is merely cumulative
		}
		start := time.Now()
		var err error
		if chipArm, compassArm, err = batchSetup(w, cfg.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	deadline := time.Now().Add(cfg.duration())
	for n := 0; n < fingerprintWindows || time.Now().Before(deadline); n++ {
		chipArm.window(w.window, nil, "")
		compassArm.window(w.window, nil, "")
		if n+1 == fingerprintWindows {
			r.fingerprint = engineFingerprint(chipArm.eng, chipArm.digest)
		}
	}
	compareArms(r, chipArm, compassArm)

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	quiet := chipArm.quietest()
	quietMs := ms(quiet.tickNs)
	var stepMs []float64
	for _, w := range chipArm.windows {
		stepMs = append(stepMs, ms(w.tickNs)...)
	}
	r.set("setup_s", median(setups), spread(setups))
	r.set("peak_rss_mb", rss, "VmHWM of this process, which holds both engines")
	r.set("chip_ticks_per_s", quiet.ticksPerS(), "quietest window; all windows: "+spread(chipArm.rates()))
	r.set("compass_ticks_per_s", compassArm.quietest().ticksPerS(), "quietest window; all windows: "+spread(compassArm.rates()))
	r.set("cpu_us_per_tick", float64(quiet.cpu.Microseconds())/float64(len(quiet.tickNs)), "chip arm, quietest window")
	r.set("op_p50_ms", median(quietMs), "one chip Step, quietest window; "+spread(quietMs))
	r.infof("chip Step over all windows: p50 %.4g ms, p95 %.4g ms, p99 %.4g ms (tails: median of ten sub-windows)",
		median(stepMs), tail(stepMs, 0.95), tail(stepMs, 0.99))
	r.attempted = chipArm.ticks + compassArm.ticks
	r.infof("real-time factor: chip %.3f, compass(1) %.3f", quiet.ticksPerS()/1000, compassArm.quietest().ticksPerS()/1000)
	r.infof("%d windows of %d ticks per arm after %d settle ticks; %d output spikes",
		len(chipArm.windows), w.window, w.settle, chipArm.digest.spikes)
	return nil
}
