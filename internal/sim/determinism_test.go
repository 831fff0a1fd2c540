package sim_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"truenorth/internal/core"
	"truenorth/internal/netgen"
	"truenorth/internal/router"
	"truenorth/internal/runtime"
	"truenorth/internal/sim"
)

// determinismNet builds a stochastic recurrent network with a sample of
// neurons rerouted to output sinks. Stochastic threshold jitter makes the
// dynamics chaotic, so any nondeterminism anywhere in an engine — unseeded
// randomness, map iteration order reaching the spike stream, a racy worker
// — diverges the output within a few ticks ("a sensitive assay for any
// deviation from perfect correspondence").
func determinismNet(t *testing.T, seed int64) (router.Mesh, []*core.Config) {
	t.Helper()
	mesh := router.Mesh{W: 4, H: 4, TileW: 4, TileH: 4}
	configs, err := netgen.Build(netgen.Params{
		Grid: mesh, RateHz: 90, SynPerNeuron: 64, Seed: seed, Stochastic: true,
		OutputEvery: 16, // tap neurons 0, 16, 32, … of every core
	})
	if err != nil {
		t.Fatal(err)
	}
	return mesh, configs
}

// engines builds one engine per worker count, 0 meaning chip, each on its
// own build of the network.
func engines(t *testing.T, build func() (router.Mesh, []*core.Config), workers ...int) []sim.Arm {
	t.Helper()
	var arms []sim.Arm
	for _, w := range workers {
		name := "compass"
		if w == 0 {
			name = "chip"
		}
		mesh, configs := build()
		e, err := sim.NewEngine(name, mesh, configs, sim.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		arms = append(arms, e)
	}
	return arms
}

// TestCrossEngineBitwiseReproducibility is the paper's one-to-one
// equivalence claim as an executable test: the same seeded network, built
// once per engine, must run identically — every tick's output spikes, NoC
// statistics and core states — on the silicon model twice and on the
// parallel Compass engine at 3 and 7 workers, across multiple seeds.
func TestCrossEngineBitwiseReproducibility(t *testing.T) {
	const ticks = 120
	for _, seed := range []int64{1, 20140613, 46} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			net := func() (router.Mesh, []*core.Config) { return determinismNet(t, seed) }
			outputs, err := sim.Lockstep(ticks, nil, engines(t, net, 0, 0, 3, 7)...)
			if err != nil {
				t.Fatal(err)
			}
			if outputs == 0 {
				t.Fatal("network produced no output spikes; the assay is vacuous")
			}
		})
	}
}

// drivenNet builds the sparse, mostly-driven variant of the assay network:
// seven eighths of each core's neurons are event-driven relays the
// active-neuron kernel may skip on quiet ticks, while the stochastic tonic
// pacemakers keep drawing PRNG jitter every tick — so a single missing,
// extra, or misordered neuron evaluation anywhere desynchronizes the shared
// draw stream and diverges the output within a few ticks.
func drivenNet(t *testing.T, seed int64) (router.Mesh, []*core.Config) {
	t.Helper()
	mesh := router.Mesh{W: 4, H: 4, TileW: 4, TileH: 4}
	configs, err := netgen.Build(netgen.Params{
		Grid: mesh, RateHz: 40, SynPerNeuron: 48, Seed: seed, Stochastic: true,
		DrivenFraction: 0.875, OutputEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mesh, configs
}

// TestActiveNeuronKernelCrossEngineReproducibility pins the tentpole
// invariant of the per-neuron event-driven kernel: on a sparse
// mostly-driven network, the masked Neuron phase must produce bit-identical
// output streams on both engines at several worker counts — while actually
// evaluating fewer neurons than the 256 a core a tick of a full scan.
func TestActiveNeuronKernelCrossEngineReproducibility(t *testing.T) {
	const ticks = 150
	for _, seed := range []int64{1, 20140613, 46} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			arms := engines(t, func() (router.Mesh, []*core.Config) { return drivenNet(t, seed) }, 0, 3, 5)
			outputs, err := sim.Lockstep(ticks, nil, arms...)
			if err != nil {
				t.Fatal(err)
			}
			if outputs == 0 {
				t.Fatal("network produced no output spikes; the assay is vacuous")
			}
			chipEng := arms[0].(sim.Engine)
			activeUpdates := chipEng.Counters().NeuronUpdates
			fullUpdates := uint64(len(chipEng.Cores())*core.NeuronsPerCore) * chipEng.Tick()
			if activeUpdates >= fullUpdates {
				t.Errorf("active kernel evaluated %d neurons, full scan %d: no work skipped",
					activeUpdates, fullUpdates)
			}
		})
	}
}

// TestSessionDriverPreservesSpikeStream re-runs the equivalence claim
// through the session runtime: a run that is paced, paused, resumed,
// checkpointed, over-run, and rewound mid-flight must emit the exact
// output stream of an uninterrupted batch run — on both engines. This is
// what makes live serving trustworthy: *operating* a session (at any
// moment, at any rate) cannot perturb what it computes, because every
// session command lands between ticks, never inside one.
func TestSessionDriverPreservesSpikeStream(t *testing.T) {
	const ticks = 120
	const seed = 46
	ctx := context.Background()

	// Reference: one uninterrupted batch run on the silicon model.
	mesh, configs := determinismNet(t, seed)
	ref, err := sim.NewEngine("chip", mesh, configs)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(ticks)
	want := ref.DrainOutputs()
	if len(want) == 0 {
		t.Fatal("network produced no output spikes; the assay is vacuous")
	}

	for _, name := range []string{"chip", "compass"} { // chip ignores WithWorkers
		t.Run(name, func(t *testing.T) {
			mesh, configs := determinismNet(t, seed)
			eng, err := sim.NewEngine(name, mesh, configs, sim.WithWorkers(5))
			if err != nil {
				t.Fatal(err)
			}
			s, err := runtime.New(eng)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Segment 1: a paced asynchronous run, paused somewhere
			// mid-flight (wherever the wall clock lands — determinism must
			// hold for *any* interruption point), then resumed free-running
			// to tick 60.
			if err := s.SetTickRate(ctx, 2000); err != nil {
				t.Fatal(err)
			}
			if err := s.Start(60); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
			if _, err := s.Pause(ctx); err != nil {
				t.Fatal(err)
			}
			if err := s.SetTickRate(ctx, 0); err != nil {
				t.Fatal(err)
			}
			if err := s.Resume(ctx); err != nil {
				t.Fatal(err)
			}
			if err := s.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			part1, err := s.Drain(ctx) // ticks [0, 60)
			if err != nil {
				t.Fatal(err)
			}
			// Checkpoint at tick 60, overshoot 25 ticks without draining,
			// and rewind: the overshoot's spikes must vanish without trace.
			var ckpt bytes.Buffer
			if err := s.Checkpoint(ctx, &ckpt); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(ctx, 25); err != nil {
				t.Fatal(err)
			}
			if err := s.Restore(ctx, &ckpt); err != nil {
				t.Fatal(err)
			}
			// Segment 2: finish the run from the restored state.
			if err := s.RunUntil(ctx, ticks); err != nil {
				t.Fatal(err)
			}
			part2, err := s.Drain(ctx) // ticks [60, 120)
			if err != nil {
				t.Fatal(err)
			}
			if got := append(part1, part2...); !slices.Equal(got, want) {
				t.Errorf("session-driven %s stream diverged from the batch run (%d vs %d spikes)",
					name, len(got), len(want))
			}
		})
	}
}

// TestBuildIsReproducible pins the construction side: netgen must emit
// byte-identical core configurations for equal seeds (the prng.Rand
// contract), and different seeds must actually differ.
func TestBuildIsReproducible(t *testing.T) {
	grid := router.Mesh{W: 3, H: 3}
	build := func(seed int64) string {
		cfgs, err := netgen.Build(netgen.Params{Grid: grid, RateHz: 50, SynPerNeuron: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, cfg := range cfgs {
			s += fmt.Sprintf("%+v\n", *cfg)
		}
		return s
	}
	if build(7) != build(7) {
		t.Fatal("equal seeds produced different networks")
	}
	if build(7) == build(8) {
		t.Fatal("different seeds produced identical networks")
	}
}

// quiescentNet is the stress workload for the per-tick pending-core mask:
// the driven assay network with all but two cores converted to pure
// event-driven relay cores (no leak, no jitter, zero initial potential).
// Those cores are completely silent — cold in the engines' activity masks —
// until a spike is routed to them, then go cold again once their delay rings
// drain. The two surviving pacemaker cores keep injecting traffic, so cores
// flap between hot and cold for the whole run, exercising every
// mask-maintenance path: direct injection, pending-slot aliasing, routed
// delivery, and checkpoint/restore mask rebuilds.
func quiescentNet(t *testing.T, seed int64) (router.Mesh, []*core.Config) {
	t.Helper()
	mesh, configs := drivenNet(t, seed)
	for ci, cfg := range configs {
		if ci == 0 || ci == 9 {
			continue // pacemaker cores keep their tonic neurons
		}
		for j := range cfg.Neurons {
			cfg.Neurons[j].Leak = 0
			cfg.Neurons[j].Threshold = 4
			cfg.Neurons[j].ThresholdMask = 0
			cfg.InitV[j] = 0
		}
	}
	return mesh, configs
}

// TestQuiescentCheckpointCrossEngine pins the pending-core mask against the
// session runtime: on a quiescent-heavy network, a checkpointed, over-run,
// and rewound session on either engine must reproduce the uninterrupted
// chip batch run spike-for-spike AND land in the identical final state —
// every core's potentials, delay ring, PRNG, and counters. Restore rebuilds
// the activity masks from core state; any core left wrongly cold after a
// rewind silently drops its pending spikes, which this assay detects.
func TestQuiescentCheckpointCrossEngine(t *testing.T) {
	const ticks = 200
	const seed = 46
	ctx := context.Background()

	mesh, configs := quiescentNet(t, seed)
	ref, err := sim.NewEngine("chip", mesh, configs)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(ticks)
	want := ref.DrainOutputs()
	if len(want) == 0 {
		t.Fatal("network produced no output spikes; the assay is vacuous")
	}
	// The point of the workload: most Neuron-phase work must be skipped,
	// or the masks were never cold and the assay proves nothing.
	if got, full := ref.Counters().NeuronUpdates, uint64(ticks)*uint64(len(ref.Cores()))*core.NeuronsPerCore; got*2 > full {
		t.Fatalf("reference evaluated %d of %d neuron slots — workload not quiescent", got, full)
	}

	for _, name := range []string{"chip", "compass"} { // chip ignores WithWorkers
		t.Run(name, func(t *testing.T) {
			mesh, configs := quiescentNet(t, seed)
			eng, err := sim.NewEngine(name, mesh, configs, sim.WithWorkers(5))
			if err != nil {
				t.Fatal(err)
			}
			s, err := runtime.New(eng)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Segment 1, then checkpoint mid-run with spikes in flight.
			if err := s.RunUntil(ctx, 80); err != nil {
				t.Fatal(err)
			}
			part1, err := s.Drain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := s.Checkpoint(ctx, &ckpt); err != nil {
				t.Fatal(err)
			}
			// Overshoot 40 ticks — plenty for cores to change hot/cold state
			// — then rewind; the masks must be rebuilt, not remembered.
			if err := s.Run(ctx, 40); err != nil {
				t.Fatal(err)
			}
			if err := s.Restore(ctx, &ckpt); err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntil(ctx, ticks); err != nil {
				t.Fatal(err)
			}
			part2, err := s.Drain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := append(part1, part2...); !slices.Equal(got, want) {
				t.Errorf("checkpointed %s stream diverged from the batch run (%d vs %d spikes)",
					name, len(got), len(want))
			}
			// Final-state equivalence: spike streams only sample tapped
			// neurons; the full per-core state and the NoC ledger catch
			// silent divergence in untapped cores.
			if _, err := sim.Lockstep(0, nil, ref, eng); err != nil {
				t.Error(err)
			}
		})
	}
}
