// Package compass is the software expression of the neurosynaptic kernel: a
// multi-worker, semi-synchronous parallel simulator of networks of
// neurosynaptic cores, modeled on the Compass simulator of Preissl et al.
// (SC 2012) that the paper benchmarks against TrueNorth.
//
// Compass partitions cores across parallel workers (the paper: MPI processes
// × OpenMP threads; here: goroutines), runs the kernel's three phases per
// tick — Synapse (crossbar propagation + integration), Neuron (leak,
// threshold, fire), Network (spike delivery) — aggregates spikes between
// worker pairs into a single message, uses meticulous load balancing, and
// synchronizes with two barriers per tick.
//
// The engine is deterministic and spike-for-spike identical to the silicon
// model in internal/chip: both run on the engine substrate of internal/sim —
// the same core.Core state machines, injection queue, fault set, masked walk
// and routing — and differ only in worker count and delivery strategy. That
// is the paper's co-design property — "any model on the software simulator
// runs unchanged on the hardware" — and the equivalence test suite verifies
// it.
package compass

import (
	"runtime"
	"sort"
	"sync"

	"truenorth/internal/core"
	"truenorth/internal/router"
	"truenorth/internal/sim"
)

// Sim is the parallel Compass engine: the engine substrate partitioned over
// workers, each resolving its cores' spikes into per-pair outboxes that the
// destination's owner drains after a barrier. It implements sim.Engine.
type Sim struct {
	*sim.Substrate
	// outbox[src][dst] accumulates deliveries produced by worker src for
	// cores owned by worker dst during the compute phase: the Network-phase
	// payload after aggregation, one word a spike.
	outbox [][][]sim.Delivery
	// wg is the fork-join barrier reused across ticks; a per-tick local
	// would be moved to the heap every Step by the worker closures.
	wg sync.WaitGroup
}

func init() {
	sim.Register("compass", func(mesh router.Mesh, configs []*core.Config, opts ...sim.Option) (sim.Engine, error) {
		return New(mesh, configs, opts...)
	})
}

// New builds a Compass simulation over mesh with row-major configs (nil
// entries are unpopulated), exactly as chip.New. sim.WithWorkers sets the
// worker (goroutine) count: 0 means runtime.GOMAXPROCS(0), and the count is
// clamped to [1, populated cores].
func New(mesh router.Mesh, configs []*core.Config, opts ...sim.Option) (*Sim, error) {
	workers := sim.BuildOptions(opts).Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sub, err := sim.NewSubstrate("compass", mesh, configs, workers, staticWeights)
	if err != nil {
		return nil, err
	}
	s := &Sim{Substrate: sub, outbox: make([][][]sim.Delivery, sub.Workers())}
	for i := range s.outbox {
		s.outbox[i] = make([][]sim.Delivery, sub.Workers())
	}
	return s, nil
}

// staticWeights estimates a core's load from its configured synapses — the
// information available before any tick runs.
func staticWeights(c *core.Core) float64 {
	return 1 + float64(c.Cfg.ConfiguredSynapses())/256
}

// Rebalance repartitions cores across workers using the measured per-core
// synaptic-event counters accumulated so far. Pending (in-flight) delay-ring
// state stays with each core, so rebalancing between ticks is transparent.
func (s *Sim) Rebalance() {
	s.Repartition(func(c *core.Core) float64 { return 1 + float64(c.Cnt.SynEvents) })
}

// Step implements sim.Engine: one semi-synchronous pass. Compute phase:
// workers step their cores in parallel, performing the Synapse and Neuron
// phases, then resolve what fired and aggregate the deliveries into per-pair
// messages (compute). Barrier. Delivery phase: each worker drains the
// messages addressed to it into its cores' axonal delay rings. Barrier.
//
//perf:hot
func (s *Sim) Step() {
	tick := s.BeginTick()
	dead := s.DeadFunc()
	n := len(s.outbox)

	// Compute phase (kernel lines 3-19 per core). Each worker is one closure
	// that captures everything by value, w included: one allocation a
	// goroutine, where passing w as an argument costs a second.
	for w := 0; w < n; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.compute(w, tick, dead)
		}()
	}
	s.wg.Wait() // barrier 1: all computation and message aggregation complete

	// Delivery phase (kernel line 15 completion + line 21 barrier).
	for w := 0; w < n; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.drain(w, tick)
		}()
	}
	s.wg.Wait() // barrier 2: all deliveries landed; safe to advance time
	s.EndTick()
}

// compute is worker w's compute phase: the masked walk over its cores, then
// one pass over what fired that resolves each spike through the dispatch
// table, charges the worker's NoC ledger and files the delivery under the
// destination's owner — Compass's per-pair aggregation, with the message
// already in its wire form. What the table does not hold, and everything
// while a core is dead, takes sim.Part.Route.
//
//perf:hot
func (s *Sim) compute(w int, tick uint64, dead router.DeadFunc) {
	p := s.Part(w)
	if p == nil || uint(w) >= uint(len(s.outbox)) {
		return
	}
	out, d := s.outbox[w], s.Dispatch()
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
		// A delivery's destination is populated, hence owned.
		if dw := uint(s.Owner(dv.Dst())); dw < uint(len(out)) {
			out[dw] = append(out[dw], dv)
		}
	}
	p.NoC.Add(noc)
}

// drain is worker w's delivery phase: it lands every message addressed to it.
// Worker w owns every destination in its column of the outbox, so landing
// touches only w's cores and bitsets — race-free by ownership.
//
//perf:hot
func (s *Sim) drain(w int, tick uint64) {
	p := s.Part(w)
	if p == nil {
		return
	}
	for src := range s.outbox {
		if uint(w) >= uint(len(s.outbox[src])) {
			continue
		}
		// Emptied for the next compute phase before it is read: nothing
		// appends until the barrier after this phase.
		msgs := s.outbox[src][w]
		s.outbox[src][w] = msgs[:0]
		for _, dv := range msgs {
			p.Land(dv, tick)
		}
	}
}

// Run implements sim.Engine.
//
//perf:hot
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// LoadImbalance reports max/mean per-worker measured synaptic events, a
// load-balance quality metric (1.0 is perfect).
func (s *Sim) LoadImbalance() float64 {
	loads := make([]float64, s.Workers())
	for w := range loads {
		for _, c := range s.Part(w).Cores() {
			if c != nil {
				loads[w] += float64(c.Cnt.SynEvents)
			}
		}
	}
	sort.Float64s(loads)
	var sum float64
	for _, l := range loads {
		sum += l
	}
	if sum == 0 {
		return 1
	}
	return loads[len(loads)-1] / (sum / float64(len(loads)))
}

var (
	_ sim.Engine          = (*Sim)(nil)
	_ sim.CheckedInjector = (*Sim)(nil)
)
