// Package chip is the silicon expression of the neurosynaptic kernel: a
// functional model of the TrueNorth processor (Section III-C) — a 2D array
// of neurosynaptic cores interconnected by an event-driven mesh
// network-on-chip, extendable across chip boundaries through merge/split
// blocks so that chips tile into boards exactly like cores tile into chips.
//
// The model is tick-accurate and canonical: it is the single-threaded
// reference against which the parallel Compass engine is verified
// spike-for-spike (the paper's one-to-one equivalence methodology,
// Section VI-A). Both run on the engine substrate of internal/sim — the same
// cores, injection queue, fault set, masked walk and routing — and differ only
// in worker count and delivery strategy.
package chip

import (
	"truenorth/internal/core"
	"truenorth/internal/router"
	"truenorth/internal/sim"
)

// TrueNorth physical constants.
const (
	// GridW and GridH are the core-array dimensions of one TrueNorth chip.
	GridW = 64
	GridH = 64
	// CoresPerChip is 4,096.
	CoresPerChip = GridW * GridH
	// NeuronsPerChip is 1 million (4,096 cores × 256 neurons).
	NeuronsPerChip = CoresPerChip * core.NeuronsPerCore
	// SynapsesPerChip is 256 million programmable synapses.
	SynapsesPerChip = CoresPerChip * core.AxonsPerCore * core.NeuronsPerCore
	// AreaCM2 is the die area (cm²), used for power-density figures.
	AreaCM2 = 4.3
	// Transistors is the transistor count, for documentation parity.
	Transistors = 5_400_000_000
)

// Model is a functional TrueNorth chip (or multi-chip board: any mesh whose
// tiles are chips): the engine substrate as a single partition, stepped by one
// thread that lands each spike as it resolves it. It implements sim.Engine.
type Model struct {
	*sim.Substrate
}

func init() {
	sim.Register("chip", func(mesh router.Mesh, configs []*core.Config, opts ...sim.Option) (sim.Engine, error) {
		return New(mesh, configs, opts...)
	})
}

// New builds a model over mesh; configs is row-major (index y*W + x), and a
// nil entry leaves that core slot unpopulated. configs may be shorter than
// the grid; missing entries are unpopulated.
//
// New accepts the unified engine options so call sites can stay
// engine-agnostic, but the chip model is defined to be the canonical
// single-threaded tick-accurate reference — it is what the parallel Compass
// expression is verified spike-for-spike against — so sim.WithWorkers is
// accepted and ignored: parallelism is a property of the Compass expression,
// not of the silicon semantics.
func New(mesh router.Mesh, configs []*core.Config, opts ...sim.Option) (*Model, error) {
	_ = sim.BuildOptions(opts) // validated for uniformity; no chip-relevant fields
	s, err := sim.NewSubstrate("chip", mesh, configs, 1, nil)
	if err != nil {
		return nil, err
	}
	return &Model{s}, nil
}

// Step implements sim.Engine: the masked walk over the active cores
// (sim.Part.Walk), then the Network phase for the whole tick — every fired
// neuron, in walk order, resolved through the dispatch table, charged to the
// NoC ledger and written into its destination's delay ring. The loads of one
// spike do not depend on those of the last, so the misses overlap. Axonal
// delays ≥ 1 put every arrival in a later tick's slot, so delivering after
// the walk changes nothing a core can read (DESIGN.md §6). What the table does
// not hold, and everything while a core is dead, takes sim.Part.Route.
//
//perf:hot
func (m *Model) Step() {
	tick := m.BeginTick()
	p := m.Part(0)
	dead, d := m.DeadFunc(), m.Dispatch()
	var noc sim.NoCStats
	for _, key := range p.Walk(tick) {
		dv := d.Lookup(key)
		if dead != nil || !dv.Plain() {
			var ok bool
			if dv, ok = p.Route(key, tick, dead, &noc); !ok {
				continue
			}
		} else {
			d.Charge(&noc, int(key>>8), dv.Dst())
		}
		p.Land(dv, tick)
	}
	p.NoC.Add(noc)
	m.EndTick()
}

// Run implements sim.Engine.
//
//perf:hot
func (m *Model) Run(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

var _ sim.Engine = (*Model)(nil)
