// Kernel benchmarks: the per-tick allocation budget scripts/allocs_gate.sh
// enforces, the paper's worst-case saturation stress and the stages of
// building a model. The paper's
// tables and figures are regenerated by cmd/tnexp (see DESIGN.md §4).
package truenorth_test

import (
	"io"
	"testing"

	"truenorth/internal/chip"
	"truenorth/internal/compass"
	"truenorth/internal/energy"
	"truenorth/internal/experiments"
	"truenorth/internal/modelcheck"
	"truenorth/internal/netgen"
	"truenorth/internal/router"
	"truenorth/internal/sim"
)

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
			grid := router.Mesh{W: 8, H: 8}
			configs, err := netgen.Build(netgen.Params{Grid: grid, RateHz: 20, SynPerNeuron: 128, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			var eng sim.Engine
			if engine == "chip" {
				eng, err = chip.New(grid, configs)
			} else {
				eng, err = compass.New(grid, configs, sim.WithWorkers(4))
			}
			if err != nil {
				b.Fatal(err)
			}
			if c, ok := eng.(io.Closer); ok {
				defer c.Close()
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

// BenchmarkModelSetup times the stages every batch set-up and every netgen
// session create pays before its first tick, one sub-benchmark each, on the
// model of the benchmark's batch_dense workload (16×16 cores, 150 Hz × 256
// synapses, every 64th neuron tapped): netgen.Build, modelcheck.Verify as
// the tools run it on a tapped model, and the two engine constructors.
// netgen.Build fans out over GOMAXPROCS, so `-cpu 1,2` shows the split at
// one and at two threads.
func BenchmarkModelSetup(b *testing.B) {
	grid := router.Mesh{W: 16, H: 16}
	p := netgen.Params{Grid: grid, RateHz: 150, SynPerNeuron: 256, Seed: 20140613, OutputEvery: 64}
	configs, err := netgen.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("netgen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netgen.Build(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := modelcheck.Verify(grid, configs, modelcheck.Options{AssumeExternalInput: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chip.New", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := chip.New(grid, configs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compass.New", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := compass.New(grid, configs, sim.WithWorkers(1))
			if err != nil {
				b.Fatal(err)
			}
			eng.Close()
		}
	})
}
