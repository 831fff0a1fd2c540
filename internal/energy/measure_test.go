package energy_test

import (
	"io"
	"testing"

	_ "truenorth/internal/chip"
	_ "truenorth/internal/compass"
	"truenorth/internal/core"
	"truenorth/internal/energy"
	"truenorth/internal/experiments"
	"truenorth/internal/netgen"
	"truenorth/internal/router"
	"truenorth/internal/sim"
)

// TestMeasuredPowerHasTheIdleFloor runs the benchmark's paper-chip network —
// 10 Hz × 32 synapses with 7/8 of the neurons event-driven relays, whose
// kernel evaluates about a quarter of the neurons a tick — and requires the
// modelled power, scaled to the 64×64 chip, to reach the model's own idle
// floor: leakage plus the neuron circuit scanning every neuron every tick.
// The load must be the same on both engines, and charge every neuron
// although the kernel skips most of them, because the silicon skips nothing.
func TestMeasuredPowerHasTheIdleFloor(t *testing.T) {
	grid := router.Mesh{W: 8, H: 8}
	m := energy.TrueNorth()
	floor := m.PassivePowerW(m.VRef) + float64(64*64*core.NeuronsPerCore)*m.ENeuron*1000
	var first energy.Load
	for arm, engine := range []string{"chip", "compass"} {
		configs, err := netgen.Build(netgen.Params{Grid: grid, RateHz: 10, SynPerNeuron: 32, DrivenFraction: 0.875, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sim.NewEngine(engine, grid, configs)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(40)
		c0 := eng.Counters()
		l := energy.MeasureLoad(eng, 100)
		performed := float64(eng.Counters().NeuronUpdates-c0.NeuronUpdates) / 100
		if c, ok := eng.(io.Closer); ok {
			c.Close()
		}
		if want := float64(64 * core.NeuronsPerCore); l.NeuronUpdates != want {
			t.Fatalf("%s: %.0f neuron updates a tick, want every live neuron, %.0f", engine, l.NeuronUpdates, want)
		}
		if performed > l.NeuronUpdates/2 {
			t.Fatalf("%s: the kernel evaluated %.0f of %.0f neurons a tick; the network does not exercise the skip", engine, performed, l.NeuronUpdates)
		}
		if arm == 0 {
			first = l
		} else if l != first {
			t.Fatalf("%s: load %+v, chip %+v", engine, l, first)
		}
		if p := m.PowerW(experiments.ScaleLoadToChip(l, grid), 1000, m.VRef); p < floor {
			t.Fatalf("%s: modelled power %.1f mW under the idle floor %.1f mW", engine, p*1e3, floor*1e3)
		}
	}
	if floor < 0.0530 || floor > 0.0532 {
		t.Fatalf("idle floor %.2f mW, want the 53.1 mW of 30 mW leakage plus 2^20 neuron evaluations a tick", floor*1e3)
	}
}

// TestLiveNeuronsSkipsDisabledAndEmptyCores counts 256 neurons for each
// populated, enabled core.
func TestLiveNeuronsSkipsDisabledAndEmptyCores(t *testing.T) {
	grid := router.Mesh{W: 2, H: 2}
	configs, err := netgen.Build(netgen.Params{Grid: grid, RateHz: 20, SynPerNeuron: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	configs[3] = nil
	eng, err := sim.NewEngine("chip", grid, configs)
	if err != nil {
		t.Fatal(err)
	}
	if got := energy.LiveNeurons(eng); got != 3*core.NeuronsPerCore {
		t.Fatalf("%d live neurons on three populated cores", got)
	}
	eng.(interface{ DisableCore(x, y int) }).DisableCore(1, 0)
	if got := energy.LiveNeurons(eng); got != 2*core.NeuronsPerCore {
		t.Fatalf("%d live neurons with one of three cores disabled", got)
	}
}

// TestHeadlineFromMeasuredCounts runs the paper's headline network, 20 Hz ×
// 128 synapses, on the chip engine at 8×8 cores, scales the measured load to
// the 64×64 chip and requires the abstract's 46 GSOPS/W and the 56–65 mW
// real-time power band at 0.75 V from it.
func TestHeadlineFromMeasuredCounts(t *testing.T) {
	grid := router.Mesh{W: 8, H: 8}
	configs, err := netgen.Build(netgen.Params{Grid: grid, RateHz: 20, SynPerNeuron: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine("chip", grid, configs)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(100)
	l := experiments.ScaleLoadToChip(energy.MeasureLoad(eng, 200), grid)
	m := energy.TrueNorth()
	eff, p := m.GSOPSPerWatt(l, 1000, 0.75), m.PowerW(l, 1000, 0.75)
	t.Logf("%.1f GSOPS/W, %.1f mW", eff, p*1e3)
	if eff < 42 || eff > 50 {
		t.Errorf("%.1f GSOPS/W at 20 Hz × 128 synapses, want ≈46", eff)
	}
	if p < 0.056 || p > 0.065 {
		t.Errorf("%.1f mW at 20 Hz × 128 synapses, want 56–65 mW", p*1e3)
	}
}
