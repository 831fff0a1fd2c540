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
// The load must be the same on both engines and with the kernel's
// per-neuron skip switched off, because the silicon skips nothing.
func TestMeasuredPowerHasTheIdleFloor(t *testing.T) {
	grid := router.Mesh{W: 8, H: 8}
	m := energy.TrueNorth()
	floor := m.PassivePowerW(m.VRef) + float64(64*64*core.NeuronsPerCore)*m.ENeuron*1000
	var first energy.Load
	for arm, tc := range []struct {
		engine   string
		fullScan bool
	}{{"chip", false}, {"chip", true}, {"compass", false}, {"compass", true}} {
		configs, err := netgen.Build(netgen.Params{Grid: grid, RateHz: 10, SynPerNeuron: 32, DrivenFraction: 0.875, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sim.NewEngine(tc.engine, grid, configs)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < grid.H; y++ {
			for x := 0; x < grid.W; x++ {
				eng.Core(x, y).SetFullNeuronScan(tc.fullScan)
			}
		}
		eng.Run(40)
		c0 := eng.Counters()
		l := energy.MeasureLoad(eng, 100)
		performed := float64(eng.Counters().NeuronUpdates-c0.NeuronUpdates) / 100
		if c, ok := eng.(io.Closer); ok {
			c.Close()
		}
		if want := float64(64 * core.NeuronsPerCore); l.NeuronUpdates != want {
			t.Fatalf("%s full-scan=%v: %.0f neuron updates a tick, want every live neuron, %.0f", tc.engine, tc.fullScan, l.NeuronUpdates, want)
		}
		if !tc.fullScan && performed > l.NeuronUpdates/2 {
			t.Fatalf("%s: the kernel evaluated %.0f of %.0f neurons a tick; the network does not exercise the skip", tc.engine, performed, l.NeuronUpdates)
		}
		if arm == 0 {
			first = l
		} else if l != first {
			t.Fatalf("%s full-scan=%v: load %+v, chip %+v", tc.engine, tc.fullScan, l, first)
		}
		if p := m.PowerW(experiments.ScaleLoadToChip(l, grid), 1000, m.VRef); p < floor {
			t.Fatalf("%s full-scan=%v: modelled power %.1f mW under the idle floor %.1f mW", tc.engine, tc.fullScan, p*1e3, floor*1e3)
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
