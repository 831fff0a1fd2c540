// Benchmarks regenerating the paper's tables and figures: one benchmark
// per experiment (see DESIGN.md §4). Each benchmark both exercises the
// code path that produces the result and reports the headline quantity as
// a custom metric, so `go test -bench=. -benchmem` doubles as a compact
// results run.
package truenorth_test

import (
	"testing"

	"truenorth/internal/chip"
	"truenorth/internal/compass"
	"truenorth/internal/core"
	"truenorth/internal/energy"
	"truenorth/internal/experiments"
	"truenorth/internal/netgen"
	"truenorth/internal/router"
	"truenorth/internal/sim"
	"truenorth/internal/vnperf"
)

// benchGrid is the reduced core grid used by simulation-backed benchmarks;
// loads are scaled to the full 64×64 chip by experiments.ScaleLoadToChip.
var benchGrid = router.Mesh{W: 8, H: 8}

// buildNet builds one recurrent characterization network on the bench grid.
func buildNet(b *testing.B, rate float64, syn int) []*core.Config {
	b.Helper()
	configs, err := netgen.Build(netgen.Params{Grid: benchGrid, RateHz: rate, SynPerNeuron: syn, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return configs
}

// measureChipLoad steps a chip engine b.N ticks and returns the full-chip
// scaled load.
func measureChipLoad(b *testing.B, rate float64, syn int) energy.Load {
	b.Helper()
	eng, err := chip.New(benchGrid, buildNet(b, rate, syn))
	if err != nil {
		b.Fatal(err)
	}
	eng.Run(40) // settle
	b.ResetTimer()
	l := energy.MeasureLoad(eng, b.N)
	b.StopTimer()
	return experiments.ScaleLoadToChip(l, benchGrid)
}

// BenchmarkFig5Characterization regenerates the Fig. 5(a/d/e) quantities at
// the paper's flagship operating point: each iteration is one kernel tick
// of the 20 Hz × 128-synapse recurrent network.
func BenchmarkFig5Characterization(b *testing.B) {
	model := energy.TrueNorth()
	l := measureChipLoad(b, 20, 128)
	b.ReportMetric(l.SOPS(1000)/1e9, "GSOPS")
	b.ReportMetric(model.GSOPSPerWatt(l, 1000, 0.75), "GSOPS/W")
	b.ReportMetric(model.EnergyPerTickJ(l, 1000, 0.75)*1e6, "uJ/tick")
}

// BenchmarkFig5MaxFrequency regenerates Fig. 5(b/c): the maximum tick rate
// across the operating space (per-iteration cost is the model evaluation).
func BenchmarkFig5MaxFrequency(b *testing.B) {
	model := energy.TrueNorth()
	var khz float64
	for i := 0; i < b.N; i++ {
		l := model.SyntheticLoad(float64(i%200), float64(i%256))
		khz = model.MaxTickHz(l, 0.70+float64(i%35)/100) / 1000
	}
	b.ReportMetric(khz, "kHz(last)")
	l := model.SyntheticLoad(1000, 256) // all-fire worst case
	b.ReportMetric(model.MaxTickHz(l, 0.75)/1000, "worst-case-kHz")
}

// BenchmarkFig6VsBGQ regenerates Fig. 6(a/b): TrueNorth versus Compass on
// 32 BG/Q compute cards at the flagship point.
func BenchmarkFig6VsBGQ(b *testing.B) {
	l := measureChipLoad(b, 20, 128)
	c := vnperf.Compare(energy.TrueNorth(), l, 1000, 0.75, vnperf.BGQ(), vnperf.Config{Hosts: 32, Threads: 64})
	b.ReportMetric(c.Speedup, "x-speedup")
	b.ReportMetric(c.EnergyImprovement, "x-energy")
}

// BenchmarkFig6VsX86 regenerates Fig. 6(c/d): TrueNorth versus Compass on
// the dual-socket x86.
func BenchmarkFig6VsX86(b *testing.B) {
	l := measureChipLoad(b, 20, 128)
	c := vnperf.Compare(energy.TrueNorth(), l, 1000, 0.75, vnperf.X86(), vnperf.Config{Hosts: 1, Threads: 24})
	b.ReportMetric(c.Speedup, "x-speedup")
	b.ReportMetric(c.EnergyImprovement, "x-energy")
}

// BenchmarkFig7Applications regenerates Fig. 7: the five vision apps'
// comparison at paper-scale loads. One iteration runs the full five-app
// video sweep, so b.N stays small.
func BenchmarkFig7Applications(b *testing.B) {
	cfg := experiments.DefaultAppRunConfig()
	cfg.Frames = 2
	var worstEnergy float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunApps(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worstEnergy = results[0].X86.EnergyImprovement
		for _, r := range results {
			if r.X86.EnergyImprovement < worstEnergy {
				worstEnergy = r.X86.EnergyImprovement
			}
		}
	}
	b.ReportMetric(worstEnergy, "min-x-energy-vs-x86")
}

// BenchmarkFig8StrongScaling regenerates Fig. 8: each iteration evaluates
// the full BG/Q hosts×threads sweep plus the x86 points for the Neovision
// load, reporting the best (32-host) slowdown versus real time.
func BenchmarkFig8StrongScaling(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		rows := experiments.BGQScaling()
		best = rows[0].SecPerTick
		for _, r := range rows {
			if r.System == "BG/Q" && r.SecPerTick < best {
				best = r.SecPerTick
			}
		}
	}
	b.ReportMetric(best/1e-3, "best-x-slower-than-realtime")
}

// BenchmarkHeadlineOperatingPoints regenerates the Section I/VI-B flagship
// numbers (46 / 81 / >400 GSOPS/W, ~10 pJ per synaptic event).
func BenchmarkHeadlineOperatingPoints(b *testing.B) {
	model := energy.TrueNorth()
	var g46, g81, g400, pj float64
	for i := 0; i < b.N; i++ {
		l := model.SyntheticLoad(20, 128)
		g46 = model.GSOPSPerWatt(l, 1000, 0.75)
		g81 = model.GSOPSPerWatt(l, 5000, 0.75)
		pj = model.ActivePJPerSynEvent(l, 0.75)
		g400 = model.GSOPSPerWatt(model.SyntheticLoad(200, 256), 1000, 0.75)
	}
	b.ReportMetric(g46, "GSOPS/W@realtime")
	b.ReportMetric(g81, "GSOPS/W@5x")
	b.ReportMetric(g400, "GSOPS/W@200Hz256syn")
	b.ReportMetric(pj, "pJ/synop")
}

// BenchmarkSectionVIAOneToOne regenerates the Section VI-A equivalence
// check: chip and Compass run the same stochastic network in lockstep; any
// spike mismatch fails the benchmark.
func BenchmarkSectionVIAOneToOne(b *testing.B) {
	configs, err := netgen.Build(netgen.Params{Grid: benchGrid, RateHz: 100, SynPerNeuron: 128, Seed: 3, Stochastic: true})
	if err != nil {
		b.Fatal(err)
	}
	hw, err := chip.New(benchGrid, configs)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := compass.New(benchGrid, configs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hw.Step()
		sw.Step()
	}
	b.StopTimer()
	if hc, sc := hw.Counters(), sw.Counters(); hc != sc {
		b.Fatalf("one-to-one equivalence violated: %+v vs %+v", hc, sc)
	}
	b.ReportMetric(float64(hw.Counters().Spikes)/float64(b.N), "spikes/tick")
}

// BenchmarkSectionVIIFutureSystems regenerates the Section VII projection
// table (board/rack power and energy-gain ratios).
func BenchmarkSectionVIIFutureSystems(b *testing.B) {
	var rack float64
	for i := 0; i < b.N; i++ {
		rows := experiments.FutureSystems()
		rack = rows[2].ProjectedW
	}
	b.ReportMetric(rack, "rack-W")
}

// BenchmarkSectionIVBAppTable regenerates the Section IV-B application
// table (network sizes and rates); one iteration builds all five nets.
func BenchmarkSectionIVBAppTable(b *testing.B) {
	cfg := experiments.DefaultAppRunConfig()
	cfg.Frames = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunApps(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerTickAllocs measures steady-state heap allocations per tick
// for both engines at the flagship operating point. scripts/allocs_gate.sh
// parses the -benchmem allocs/op column and fails CI when a budget is
// exceeded: neither engine may allocate on the per-tick path at all —
// Compass's worker pool is started at construction, not per tick. This is
// the dynamic complement to the hotalloc analyzer, which cannot see what
// escape analysis decides.
func BenchmarkPerTickAllocs(b *testing.B) {
	for _, engine := range []string{"chip", "compass"} {
		b.Run(engine, func(b *testing.B) {
			configs := buildNet(b, 20, 128)
			var eng sim.Engine
			var err error
			if engine == "chip" {
				eng, err = chip.New(benchGrid, configs)
			} else {
				eng, err = compass.New(benchGrid, configs, sim.WithWorkers(4))
			}
			if err != nil {
				b.Fatal(err)
			}
			eng.Run(40) // settle past the delay-ring fill transient
			eng.DrainOutputs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
				eng.DrainOutputs()
			}
		})
	}
}

// BenchmarkKernelWorstCase is the paper's worst-case stress: every synapse
// active, every neuron firing every tick (the scenario used to verify the
// chip still meets real time). One iteration is one tick of a fully
// saturated core grid.
func BenchmarkKernelWorstCase(b *testing.B) {
	configs, err := netgen.Build(netgen.Params{Grid: router.Mesh{W: 4, H: 4}, RateHz: 1000, SynPerNeuron: 256, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Zero the synaptic weights so the ±1 recurrent noise cannot delay any
	// threshold crossing: every neuron must fire on every tick (the
	// conditional weighted accumulates still execute and are counted).
	for _, cfg := range configs {
		for j := range cfg.Neurons {
			cfg.Neurons[j].Weights = [4]int32{}
		}
	}
	eng, err := chip.New(router.Mesh{W: 4, H: 4}, configs)
	if err != nil {
		b.Fatal(err)
	}
	eng.Run(30) // fill the axonal delay rings to steady state
	b.ResetTimer()
	l := energy.MeasureLoad(eng, b.N)
	b.StopTimer()
	l = experiments.ScaleLoadToChip(l, router.Mesh{W: 4, H: 4})
	b.ReportMetric(l.SynEvents, "full-chip-synops/tick")
	b.ReportMetric(energy.TrueNorth().MaxTickHz(l, 0.75), "modeled-max-Hz")
}
