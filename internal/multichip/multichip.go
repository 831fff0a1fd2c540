// Package multichip models tiled TrueNorth arrays (Sections III-C and
// VII): "individual chips also tile in 2D, with the routing network
// extending across chip boundaries through peripheral merge and split
// blocks", with no auxiliary communication circuitry. The paper
// demonstrates a 4×1 board, a 4×4 board (16 million neurons, 4 billion
// synapses, 7.2 W total), and projects quarter-rack, rack, and
// "human-scale" systems built from the same tiling.
//
// A board is simply a larger mesh whose tiles are chips; the chip engine
// already routes across tile boundaries and counts merge/split crossings.
// This package adds the board constructors, the inter-chip link capacity
// model (merge/split blocks serialize packets onto shared pins), and the
// board/rack power model used by the Section VII projections.
package multichip

import (
	"fmt"

	"truenorth/internal/chip"
	"truenorth/internal/core"
	"truenorth/internal/energy"
	"truenorth/internal/router"
)

// Board describes a tiled array of TrueNorth chips.
type Board struct {
	// ChipsX, ChipsY is the array arrangement.
	ChipsX, ChipsY int
	// TileW, TileH are the per-chip core dimensions (64×64 for real
	// silicon; tests use smaller tiles).
	TileW, TileH int
}

// FourByFour is the paper's 4×4 array board (Fig. 9, Section VII-C):
// 16 million neurons and 4 billion synapses.
func FourByFour() Board { return Board{ChipsX: 4, ChipsY: 4, TileW: chip.GridW, TileH: chip.GridH} }

// Chips returns the chip count.
func (b Board) Chips() int { return b.ChipsX * b.ChipsY }

// Mesh returns the board's global core mesh.
func (b Board) Mesh() router.Mesh {
	return router.Mesh{
		W: b.ChipsX * b.TileW, H: b.ChipsY * b.TileH,
		TileW: b.TileW, TileH: b.TileH,
	}
}

// Neurons returns the total neuron count.
func (b Board) Neurons() int {
	return b.Chips() * b.TileW * b.TileH * core.NeuronsPerCore
}

// Synapses returns the total synapse count, in 64 bits: a 4×4 board's 2^32
// overflows a 32-bit int.
func (b Board) Synapses() int64 {
	return int64(b.Chips()*b.TileW*b.TileH) * core.NeuronsPerCore * core.AxonsPerCore
}

// New builds the functional model of the board: configs are row-major over
// the global core grid (nil entries unpopulated).
func (b Board) New(configs []*core.Config) (*chip.Model, error) {
	if b.ChipsX <= 0 || b.ChipsY <= 0 || b.TileW <= 0 || b.TileH <= 0 {
		return nil, fmt.Errorf("multichip: invalid board %+v", b)
	}
	return chip.New(b.Mesh(), configs)
}

// LinkModel captures the merge/split serialization constraint: packets
// leaving a chip edge share one physical link ("packets leaving the mesh
// are tagged with their row before being merged onto a shared link").
type LinkModel struct {
	// PacketsPerTick is the per-link, per-direction capacity in spike
	// packets per 1 kHz tick.
	PacketsPerTick float64
}

// DefaultLink returns the nominal inter-chip link capacity. The
// asynchronous peripheral bus carries tens of thousands of packets per
// millisecond tick.
func DefaultLink() LinkModel { return LinkModel{PacketsPerTick: 20000} }

// boundaryLinks counts the physical chip-boundary links on the board
// (internal edges only; each edge is a pair of opposing links).
func (b Board) boundaryLinks() int {
	return (b.ChipsX-1)*b.ChipsY + (b.ChipsY-1)*b.ChipsX
}

// Utilization returns the mean fraction of inter-chip link capacity used
// by the measured crossing rate (crossings per tick spread over the
// board's boundary links). Values near or above 1 indicate the merge/split
// blocks are saturated and the board cannot sustain real time.
func (b Board) Utilization(l LinkModel, crossingsPerTick float64) float64 {
	links := b.boundaryLinks()
	if links == 0 || l.PacketsPerTick == 0 {
		return 0
	}
	return crossingsPerTick / (float64(links) * l.PacketsPerTick)
}

// PowerModel is the board/system power decomposition of Section VII.
type PowerModel struct {
	// Chip is the per-chip silicon model.
	Chip energy.Model
	// SupportW is the fixed support-logic power per board (FPGAs, network
	// interface): the 4×4 board dissipates 4.7 W of support against 2.5 W
	// of TrueNorth array power.
	SupportW float64
}

// DefaultPower returns the Section VII board power model.
func DefaultPower() PowerModel {
	return PowerModel{Chip: energy.TrueNorth(), SupportW: 4.7}
}

// BoardPowerW returns total board power for a per-chip load at the given
// tick rate and supply voltage (the paper ran the 4×4 board at 1.0 V).
func (p PowerModel) BoardPowerW(b Board, perChipLoad energy.Load, tickHz, volts float64) float64 {
	return float64(b.Chips())*p.Chip.PowerW(perChipLoad, tickHz, volts) + p.SupportW
}

// SystemSpec is one of the Section VII large-scale system projections.
type SystemSpec struct {
	Name       string
	Chips      int
	BudgetW    float64 // the paper's stated power budget
	Neurons    int64
	Synapses   int64
	Replicates string  // the prior simulation this system would replicate
	EnergyGain float64 // the paper's claimed energy reduction vs. that simulation
}

// SectionVIISystems returns the paper's projected systems: the 16-chip
// board, the quarter-rack backplane ("rat-scale", 6,400× less energy than
// 32 racks of Blue Gene/L), and the 4,096-chip rack ("1% human-scale",
// 128,000× less energy than 16 racks of Blue Gene/P).
func SectionVIISystems() []SystemSpec {
	const perChipNeurons = int64(chip.NeuronsPerChip)
	const perChipSynapses = int64(chip.SynapsesPerChip)
	mk := func(name string, chips int, budget float64, repl string, gain float64) SystemSpec {
		return SystemSpec{
			Name: name, Chips: chips, BudgetW: budget,
			Neurons:    int64(chips) * perChipNeurons,
			Synapses:   int64(chips) * perChipSynapses,
			Replicates: repl, EnergyGain: gain,
		}
	}
	return []SystemSpec{
		mk("4x4 board", 16, 10, "", 0),
		mk("quarter-rack (rat-scale)", 1024, 1000, "32 racks Blue Gene/L (10x slower than real time)", 6400),
		mk("rack (1% human-scale)", 4096, 4000, "16 racks Blue Gene/P (400x slower than real time)", 128000),
	}
}

// ProjectedPowerW estimates a system's power from the chip model plus
// per-board support overhead, for comparison against the paper's budget.
func (p PowerModel) ProjectedPowerW(s SystemSpec, perChipLoad energy.Load, tickHz, volts float64) float64 {
	boards := (s.Chips + 15) / 16
	return float64(s.Chips)*p.Chip.PowerW(perChipLoad, tickHz, volts) + float64(boards)*p.SupportW
}
