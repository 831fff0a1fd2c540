package multichip_test

import (
	"fmt"
	"log"

	"truenorth/internal/core"
	"truenorth/internal/energy"
	"truenorth/internal/multichip"
	"truenorth/internal/neuron"
)

// ExampleBoard tiles chips into a board (Section VII), sends a spike across
// the merge/split chip boundaries, disables a core on its path and watches
// the mesh route around it: local failures do not disrupt global usability.
func ExampleBoard() {
	// A 2×2 board of 8×8-core tiles (real chips are 64×64; the semantics
	// are identical). A relay chain zig-zags through all four chips:
	// (2,2) → (12,2) → (12,12) → (2,12) → out.
	board := multichip.Board{ChipsX: 2, ChipsY: 2, TileW: 8, TileH: 8}
	mesh := board.Mesh()
	waypoints := [][2]int{{2, 2}, {12, 2}, {12, 12}, {2, 12}}
	configs := make([]*core.Config, mesh.W*mesh.H)
	for i, wp := range waypoints {
		cfg := core.InertConfig()
		cfg.Synapses[0].Set(0)
		cfg.Neurons[0] = neuron.Identity()
		cfg.Targets[0] = core.Target{Valid: true, Output: true, OutputID: 99}
		if i+1 < len(waypoints) {
			next := waypoints[i+1]
			cfg.Targets[0] = core.Target{Valid: true, DX: int16(next[0] - wp[0]), DY: int16(next[1] - wp[1]), Delay: 1}
		}
		configs[wp[1]*mesh.W+wp[0]] = cfg
	}
	configs[2*mesh.W+8] = core.InertConfig() // the core disabled below
	m, err := board.New(configs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("board: %d chips of %dx%d cores, %d neurons, %d synapses\n",
		board.Chips(), board.TileW, board.TileH, board.Neurons(), board.Synapses())

	m.Inject(2, 2, 0, 0)
	m.Run(8)
	noc := m.NoC()
	fmt.Printf("healthy: %d output spike(s), %d hops, %d chip-boundary crossings\n",
		len(m.DrainOutputs()), noc.Hops, noc.Crossings)

	// Kill the core on the first leg's dimension-order path.
	m.DisableCore(8, 2)
	m.Inject(2, 2, 0, 0)
	m.Run(8)
	noc2 := m.NoC()
	fmt.Printf("core (8,2) disabled: %d output spike(s), +%d hops, %d detoured packet(s)\n",
		len(m.DrainOutputs()), noc2.Hops-noc.Hops, noc2.Detours)
	fmt.Printf("inter-chip link utilization: %.6f%%\n",
		100*board.Utilization(multichip.DefaultLink(), float64(noc2.Crossings)/16))

	// The Section VII power figure for real 64×64 chips on a 4×4 board.
	load := energy.TrueNorth().SyntheticLoad(20, 128)
	fmt.Printf("4x4 board of real chips, 16M neurons at 20 Hz x 128 synapses, 1.0 V: %.2f W (paper: 7.2 W)\n",
		multichip.DefaultPower().BoardPowerW(multichip.FourByFour(), load, 1000, 1.0))
	// Output:
	// board: 4 chips of 8x8 cores, 65536 neurons, 16777216 synapses
	// healthy: 1 output spike(s), 30 hops, 3 chip-boundary crossings
	// core (8,2) disabled: 1 output spike(s), +32 hops, 1 detoured packet(s)
	// inter-chip link utilization: 0.000469%
	// 4x4 board of real chips, 16M neurons at 20 Hz x 128 synapses, 1.0 V: 6.61 W (paper: 7.2 W)
}
