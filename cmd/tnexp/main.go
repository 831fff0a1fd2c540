// Command tnexp regenerates the paper's evaluation tables. Each argument
// names one table, printed in the order given:
//
//	fig5           Fig. 5a-f: the 88-network characterization, the
//	               voltage sweep, the headline operating points and the
//	               power breakdown
//	fig6           Fig. 6a-d: TrueNorth vs Compass on BG/Q and x86 over
//	               the same 88 networks
//	fig7           Fig. 7a/7b and the Section IV-B table: the five vision
//	               applications
//	fig8           Fig. 8: modelled Neovision strong scaling on BG/Q and x86
//	fig8-measured  measured wall-clock strong scaling of the Go Compass
//	               engine on this host
//	regress        Section VI-A: chip and Compass in lockstep, spike for
//	               spike, plus the longest-regression summary
//	future         Section VII: board and rack projections
//	faults         Section III-C: disabled cores vs delivery and activity
//	topology       clustered connectivity vs NoC load
//
// Usage:
//
//	tnexp [-grid N] [-ticks N] table...
//
// -grid is the core-grid edge of the simulated sweeps (fig5, fig6 and
// fig8-measured); -grid 64 simulates the full 4,096-core chip and is about
// 16× slower. -ticks is the Section VI-A regression horizon; the paper ran
// 10k to 100M ticks (e.g. -ticks 1000000). fig5 and fig6 share one
// characterization run. Every table except fig8-measured is a pure
// function of its seeds: two runs print the same bytes. The sweep,
// application and regression networks are statically verified
// (modelcheck) before they run; a finding fails the table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"truenorth/internal/chip"
	"truenorth/internal/compass"
	"truenorth/internal/energy"
	"truenorth/internal/experiments"
	"truenorth/internal/modelcheck"
	"truenorth/internal/multichip"
	"truenorth/internal/netgen"
	"truenorth/internal/router"
	"truenorth/internal/sim"
)

// tables lists every table tnexp prints, in the order -h shows them.
var tables = []struct {
	name  string
	print func(*env, io.Writer) error
}{
	{"fig5", fig5},
	{"fig6", fig6},
	{"fig7", fig7},
	{"fig8", fig8},
	{"fig8-measured", fig8Measured},
	{"regress", regress},
	{"future", future},
	{"faults", faults},
	{"topology", topology},
}

// env is one invocation's settings plus the characterization run that
// fig5 and fig6 share.
type env struct {
	grid   router.Mesh
	ticks  int
	points []experiments.CharPoint
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and prints the named tables to stdout. It returns the
// process exit code: 2 for a usage error, 1 for a failed experiment.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, t := range tables {
		names = append(names, t.name)
	}
	fs := flag.NewFlagSet("tnexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tnexp [-grid N] [-ticks N] table...\ntables: %s\n", strings.Join(names, ", "))
		fs.PrintDefaults()
	}
	grid := fs.Int("grid", 16, "core grid edge of the fig5/fig6/fig8-measured sweeps (64 = full TrueNorth chip)")
	ticks := fs.Int("ticks", 10000, "Section VI-A regression horizon in ticks")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if *ticks < 1 {
		fmt.Fprintln(stderr, "tnexp: -ticks must be at least 1")
		return 2
	}
	var todo []func(*env, io.Writer) error
	for _, arg := range fs.Args() {
		i := 0
		for i < len(tables) && tables[i].name != arg {
			i++
		}
		if i == len(tables) {
			fmt.Fprintf(stderr, "tnexp: unknown table %q (valid: %s)\n", arg, strings.Join(names, ", "))
			return 2
		}
		todo = append(todo, tables[i].print)
	}
	e := &env{grid: router.Mesh{W: *grid, H: *grid}, ticks: *ticks}
	for i, table := range todo {
		if err := table(e, stdout); err != nil {
			fmt.Fprintf(stderr, "tnexp: %s: %v\n", fs.Arg(i), err)
			return 1
		}
	}
	return 0
}

// characterize runs the 88-network sweep once per invocation.
func (e *env) characterize(w io.Writer) ([]experiments.CharPoint, error) {
	if e.points != nil {
		return e.points, nil
	}
	cfg := experiments.DefaultCharConfig()
	cfg.Grid = e.grid
	fmt.Fprintf(w, "Characterizing 88 recurrent networks on a %dx%d grid (%d warmup + %d measured ticks)...\n\n",
		cfg.Grid.W, cfg.Grid.H, cfg.Warmup, cfg.Ticks)
	points, err := experiments.Characterize(cfg)
	e.points = points
	return points, err
}

func fig5(e *env, w io.Writer) error {
	points, err := e.characterize(w)
	if err != nil {
		return err
	}
	ts := experiments.CharTables(points)
	ts = append(ts, experiments.VoltageSweep()...)
	return fprint(w, append(ts, experiments.Headline(), experiments.BreakdownTable())...)
}

func fig6(e *env, w io.Writer) error {
	points, err := e.characterize(w)
	if err != nil {
		return err
	}
	return fprint(w, experiments.CompareTables(points)...)
}

func fig7(_ *env, w io.Writer) error {
	results, err := experiments.RunApps(experiments.DefaultAppRunConfig())
	if err != nil {
		return err
	}
	return fprint(w, experiments.AppTables(results)...)
}

func fig8(_ *env, w io.Writer) error {
	return fprint(w, experiments.ScalingTable(experiments.BGQScaling()))
}

// fig8Measured times 200 ticks per worker count, doubling from 1 up to
// GOMAXPROCS.
func fig8Measured(e *env, w io.Writer) error {
	var sweep []int
	for n := 1; n <= runtime.GOMAXPROCS(0); n *= 2 {
		sweep = append(sweep, n)
	}
	rows, err := experiments.MeasureGoScaling(e.grid, 200, sweep, 1)
	if err != nil {
		return err
	}
	return fprint(w, experiments.MeasuredScalingTable(rows, e.grid))
}

// regress reproduces the Section VI-A methodology: the chip model (the
// "silicon") and the Compass engine run four stochastic recurrent networks
// on an 8×8 grid for e.ticks ticks in sim.Lockstep, which after every tick
// compares every core's potentials, delay ring, PRNG and counters, the
// output spikes and the NoC statistics — "not a single spike mismatch".
// The first divergence aborts the table and names its tick, core and field.
func regress(e *env, w io.Writer) error {
	mesh := router.Mesh{W: 8, H: 8}
	nets := []struct {
		rate float64
		syn  int
	}{{25, 51}, {75, 128}, {130, 179}, {200, 256}}
	totalSpikes := uint64(0)
	for n, net := range nets {
		// Stochastic dynamics make the networks "a sensitive assay for any
		// deviation from perfect correspondence".
		configs, err := netgen.Build(netgen.Params{
			Grid: mesh, RateHz: net.rate, SynPerNeuron: net.syn, Seed: 1 + int64(n), Stochastic: true,
		})
		if err != nil {
			return err
		}
		// A regression against a structurally broken model proves nothing;
		// the gate is the one the simulation service applies at upload.
		if err := modelcheck.Verify(mesh, configs, modelcheck.Options{}); err != nil {
			return fmt.Errorf("net %d: %w", n, err)
		}
		hw, err := chip.New(mesh, configs)
		if err != nil {
			return err
		}
		sw, err := compass.New(mesh, configs)
		if err != nil {
			return err
		}
		_, err = sim.Lockstep(e.ticks, nil, hw, sw)
		sw.Close()
		if err != nil {
			return fmt.Errorf("net %d: %w", n, err)
		}
		c := hw.Counters()
		totalSpikes += c.Spikes
		fmt.Fprintf(w, "net %d (rate %3.0f Hz, %3d syn): %d ticks, %d spikes, %d synaptic events — 100%% agreement\n",
			n, net.rate, net.syn, e.ticks, c.Spikes, c.SynEvents)
	}
	fmt.Fprintf(w, "\nAll %d regressions matched spike-for-spike over %d ticks (%d total spikes).\n",
		len(nets), e.ticks, totalSpikes)

	// The paper's single-core and full-chip regressions instanced up to
	// 2,048 cores; the published 27.7-hour/74-day wall-clock pair implies
	// a sub-chip network on the legacy server. Model it as 1/8 of a chip
	// (512 cores) at a moderate operating point.
	full := energy.TrueNorth().SyntheticLoad(20, 64)
	return fprint(w, experiments.RegressionSummary(energy.Load{
		SynEvents:     full.SynEvents / 8,
		NeuronUpdates: full.NeuronUpdates / 8,
		Spikes:        full.Spikes / 8,
		Hops:          full.Hops / 8,
	}))
}

func future(_ *env, w io.Writer) error {
	if err := fprint(w, experiments.FutureTable(experiments.FutureSystems())); err != nil {
		return err
	}
	// The 4×4 board power split (Section VII-C: 7.2 W = 2.5 W array at
	// 1.0 V + 4.7 W support).
	pm := multichip.DefaultPower()
	load := energy.TrueNorth().SyntheticLoad(20, 128)
	total := pm.BoardPowerW(multichip.FourByFour(), load, 1000, 1.0)
	_, err := fmt.Fprintf(w, "4x4 board at 1.0V, real time: total %.2f W = %.2f W TrueNorth array + %.2f W support logic\n(paper: 7.2 W = 2.5 W + 4.7 W)\n",
		total, total-pm.SupportW, pm.SupportW)
	return err
}

func faults(_ *env, w io.Writer) error {
	points, err := experiments.FaultSweep(experiments.DefaultFaultConfig())
	if err != nil {
		return err
	}
	return fprint(w, experiments.FaultTable(points))
}

func topology(_ *env, w io.Writer) error {
	points, err := experiments.TopologySweep(experiments.DefaultTopologyConfig())
	if err != nil {
		return err
	}
	return fprint(w, experiments.TopologyTable(points))
}

func fprint(w io.Writer, ts ...*experiments.Table) error {
	for _, t := range ts {
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}
