package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"truenorth/internal/chip"
	"truenorth/internal/compass"
	"truenorth/internal/netgen"
	"truenorth/internal/router"
	"truenorth/internal/sim"
	"truenorth/internal/spikeio"
)

// The serialized bytes of one fixed netgen model, of its checkpoint after
// 50 ticks, and of the outputs it drained by then. Refactors of the engine
// contract, the session runtime or the codecs must leave all three where
// they are; a deliberate format or semantics change re-records them.
const (
	pinnedModelSHA   = "5b9255ee069fe33bc73ab52be486db312c363a9f12766c6e573fab21a89ad6ff"
	pinnedCkptSHA    = "9dedd24fe9882082f7d45368b65056a124dc3ff96ca62105f8f153122758e2b8"
	pinnedOutputsSHA = "ab75bb6ebbfe7e0600fc200c79258fee6407a2e75a0c516ff7f0f8dcdfd56a87"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestPinnedBytes(t *testing.T) {
	mesh := router.Mesh{W: 4, H: 4, TileW: 4, TileH: 4}
	configs, err := netgen.Build(netgen.Params{Grid: mesh, RateHz: 40, SynPerNeuron: 64, Seed: 11, Stochastic: true, OutputEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if err := WriteModel(&mbuf, mesh, configs); err != nil {
		t.Fatal(err)
	}
	if got := sha(mbuf.Bytes()); got != pinnedModelSHA {
		t.Errorf("WriteModel digest %s, pinned %s", got, pinnedModelSHA)
	}

	hw, err := chip.New(mesh, configs)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := compass.New(mesh, configs, sim.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	var outs [2][]byte
	for i, eng := range []sim.Engine{hw, sw} {
		eng.Run(50)
		var cbuf bytes.Buffer
		if err := WriteCheckpoint(&cbuf, eng); err != nil {
			t.Fatal(err)
		}
		if got := sha(cbuf.Bytes()); got != pinnedCkptSHA {
			t.Errorf("engine %d: WriteCheckpoint digest %s, pinned %s", i, got, pinnedCkptSHA)
		}
		events := spikeio.FromOutputs(eng.DrainOutputs())
		if len(events) == 0 {
			t.Fatalf("engine %d: no outputs in 50 ticks; the output pin is vacuous", i)
		}
		var obuf bytes.Buffer
		if err := spikeio.Write(&obuf, events); err != nil {
			t.Fatal(err)
		}
		outs[i] = obuf.Bytes()
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("chip and compass(3) drained different outputs")
	}
	if got := sha(outs[0]); got != pinnedOutputsSHA {
		t.Errorf("spikeio.Write digest %s, pinned %s", got, pinnedOutputsSHA)
	}
}
