package model

import (
	"bytes"
	"testing"

	"truenorth/internal/chip"
	"truenorth/internal/compass"
	"truenorth/internal/core"
	"truenorth/internal/netgen"
	"truenorth/internal/router"
	"truenorth/internal/sim"
)

func testNetwork(t *testing.T) (router.Mesh, []*core.Config) {
	t.Helper()
	mesh := router.Mesh{W: 4, H: 3, TileW: 2, TileH: 3}
	configs, err := netgen.Build(netgen.Params{Grid: mesh, RateHz: 50, SynPerNeuron: 77, Seed: 5, Stochastic: true})
	if err != nil {
		t.Fatal(err)
	}
	// Punch a hole and add an output target to exercise all encodings.
	configs[5] = nil
	configs[0].Targets[3] = core.Target{Valid: true, Output: true, OutputID: 42}
	// A dense crossbar row (over half full) to hit the dense path.
	for j := 0; j < 200; j++ {
		configs[0].Synapses[7].Set(j)
	}
	return mesh, configs
}

func TestModelRoundTrip(t *testing.T) {
	mesh, configs := testNetwork(t)
	var buf bytes.Buffer
	if err := WriteModel(&buf, mesh, configs); err != nil {
		t.Fatal(err)
	}
	mesh2, configs2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mesh2 != mesh {
		t.Fatalf("mesh round trip: %+v != %+v", mesh2, mesh)
	}
	if len(configs2) != len(configs) {
		t.Fatalf("config count %d != %d", len(configs2), len(configs))
	}
	for i := range configs {
		switch {
		case configs[i] == nil && configs2[i] == nil:
		case configs[i] == nil || configs2[i] == nil:
			t.Fatalf("core %d: populated mismatch", i)
		case *configs[i] != *configs2[i]:
			t.Fatalf("core %d: config differs after round trip", i)
		}
	}
}

func TestModelRoundTripRunsIdentically(t *testing.T) {
	// The decisive test: the decoded model produces the same simulation.
	mesh, configs := testNetwork(t)
	var buf bytes.Buffer
	if err := WriteModel(&buf, mesh, configs); err != nil {
		t.Fatal(err)
	}
	_, configs2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := chip.New(mesh, configs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chip.New(mesh, configs2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Lockstep(300, nil, a, b); err != nil {
		t.Fatalf("decoded model diverges: %v", err)
	}
	if a.Counters().Spikes == 0 {
		t.Fatal("silent network; test vacuous")
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	if _, _, err := ReadModel(bytes.NewReader([]byte("not a model at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, err := ReadModel(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid prefix.
	mesh, configs := testNetwork(t)
	var buf bytes.Buffer
	if err := WriteModel(&buf, mesh, configs); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, _, err := ReadModel(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated model accepted")
	}
}

func TestCheckpointCrossEngine(t *testing.T) {
	// Suspend on the silicon model, resume on Compass: the two expressions
	// share identical state semantics, so the continuation is bit-exact.
	mesh, configs := testNetwork(t)
	hw, err := chip.New(mesh, configs)
	if err != nil {
		t.Fatal(err)
	}
	hw.Run(80)
	var ckpt bytes.Buffer
	if err := WriteCheckpoint(&ckpt, hw); err != nil {
		t.Fatal(err)
	}
	hw.DrainOutputs() // the checkpoint does not carry undrained outputs

	sw, err := compass.New(mesh, configs, sim.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadCheckpoint(bytes.NewReader(ckpt.Bytes()), sw); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Lockstep(120, nil, hw, sw); err != nil {
		t.Fatalf("cross-engine resume diverged: %v", err)
	}
	if hw.Counters().Spikes == 0 {
		t.Fatal("silent network; test vacuous")
	}
}

func TestCheckpointPreservesFaults(t *testing.T) {
	mesh, configs := testNetwork(t)
	a, err := chip.New(mesh, configs)
	if err != nil {
		t.Fatal(err)
	}
	a.DisableCore(2, 1)
	a.Run(50)
	var ckpt bytes.Buffer
	if err := WriteCheckpoint(&ckpt, a); err != nil {
		t.Fatal(err)
	}
	a.DrainOutputs() // the checkpoint does not carry undrained outputs

	b, err := chip.New(mesh, configs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadCheckpoint(bytes.NewReader(ckpt.Bytes()), b); err != nil {
		t.Fatal(err)
	}
	if !b.Core(2, 1).Disabled {
		t.Fatal("fault flag lost across checkpoint")
	}
	if _, err := sim.Lockstep(50, nil, a, b); err != nil {
		t.Fatalf("faulted resume diverged: %v", err)
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	mesh, configs := testNetwork(t)
	eng, err := chip.New(mesh, configs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadCheckpoint(bytes.NewReader([]byte("garbage")), eng); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	// A model file is not a checkpoint.
	var buf bytes.Buffer
	if err := WriteModel(&buf, mesh, configs); err != nil {
		t.Fatal(err)
	}
	if err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), eng); err == nil {
		t.Fatal("model file accepted as checkpoint")
	}
}

func TestCheckpointMismatchedTopology(t *testing.T) {
	mesh, configs := testNetwork(t)
	a, err := chip.New(mesh, configs)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := WriteCheckpoint(&ckpt, a); err != nil {
		t.Fatal(err)
	}
	// An engine with fewer populated cores must reject the snapshot.
	configs2 := make([]*core.Config, len(configs))
	configs2[0] = core.InertConfig()
	b, err := chip.New(mesh, configs2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadCheckpoint(bytes.NewReader(ckpt.Bytes()), b); err == nil {
		t.Fatal("topology-mismatched checkpoint accepted")
	}
}
