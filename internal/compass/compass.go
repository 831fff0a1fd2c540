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
// The workers are a pool started with the engine. The goroutine that calls
// Step is worker 0; workers 1..n−1 wait on their own start channels, and a
// reused sync.WaitGroup is each phase's barrier, so a tick spawns nothing.
// With one worker the tick runs inline on the caller, through the same two
// phases.
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
	"io"
	"runtime"
	"sort"
	"sync"

	"truenorth/internal/core"
	"truenorth/internal/router"
	"truenorth/internal/sim"
)

// Sim is the parallel Compass engine: the engine substrate partitioned over
// workers, each resolving its cores' spikes into per-pair outboxes that the
// destination's owner drains after a barrier. It implements sim.Engine and
// io.Closer.
//
// Sim is a thin handle over the engine its workers share. The workers never
// reference the handle, so a Sim dropped without Close becomes unreachable
// and its finalizer stops the pool.
type Sim struct {
	*engine
}

// engine is the state a tick runs on.
type engine struct {
	*sim.Substrate
	// outbox[src][dst] accumulates deliveries produced by worker src for
	// cores owned by worker dst during the compute phase: the Network-phase
	// payload after aggregation, one word a spike.
	outbox [][][]sim.Delivery
	// peers[w-1] is pool worker w's start channel, for w in 1..n-1; the
	// goroutine that calls Step is worker 0. It is nil with one worker and
	// after Close, and the caller then runs every share itself.
	peers []chan phase
	// wg is the barrier: reused every phase, counting the peers still
	// running it.
	wg sync.WaitGroup
}

// phase names one half of a tick, as sent to a pool worker.
type phase uint8

const (
	computePhase phase = iota
	drainPhase
)

func init() {
	sim.Register("compass", func(mesh router.Mesh, configs []*core.Config, opts ...sim.Option) (sim.Engine, error) {
		return New(mesh, configs, opts...)
	})
}

// New builds a Compass simulation over mesh with row-major configs (nil
// entries are unpopulated), exactly as chip.New. sim.WithWorkers sets the
// worker count: 0 means runtime.GOMAXPROCS(0), and the count is clamped to
// [1, populated cores]. With n > 1 workers, New starts the n−1 pool
// goroutines that Close stops.
func New(mesh router.Mesh, configs []*core.Config, opts ...sim.Option) (*Sim, error) {
	workers := sim.BuildOptions(opts).Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sub, err := sim.NewSubstrate("compass", mesh, configs, workers, staticWeights)
	if err != nil {
		return nil, err
	}
	n := sub.Workers()
	e := &engine{Substrate: sub, outbox: make([][][]sim.Delivery, n)}
	for i := range e.outbox {
		e.outbox[i] = make([][]sim.Delivery, n)
	}
	s := &Sim{engine: e}
	if n == 1 {
		return s, nil
	}
	e.peers = make([]chan phase, n-1)
	for i := range e.peers {
		w, ch := i+1, make(chan phase, 1)
		e.peers[i] = ch
		// A pool worker runs one phase per message until Close (or the
		// handle's finalizer) closes its channel.
		go func() {
			for ph := range ch {
				e.run(w, ph)
				e.wg.Done()
			}
		}()
	}
	runtime.SetFinalizer(s, func(s *Sim) { stopPool(s.peers) })
	return s, nil
}

// stopPool closes the pool workers' start channels, which ends them.
func stopPool(peers []chan phase) {
	for _, ch := range peers {
		close(ch)
	}
}

// Close implements io.Closer: it stops the pool workers. It is idempotent,
// and the Sim stays usable — with no pool, the caller runs every worker's
// share of a phase in turn, which computes the same tick.
func (s *Sim) Close() error {
	runtime.SetFinalizer(s, nil)
	stopPool(s.peers)
	s.peers = nil
	return nil
}

// staticWeights estimates a core's load from its configured synapses — the
// information available before any tick runs.
func staticWeights(c *core.Core) float64 {
	return 1 + float64(c.Cfg.ConfiguredSynapses())/256
}

// Rebalance repartitions cores across workers using the measured per-core
// synaptic-event counters accumulated so far. Pending (in-flight) delay-ring
// state stays with each core, so rebalancing between ticks is transparent.
// The worker count is kept, and workers look their part up every phase.
func (s *Sim) Rebalance() {
	s.Repartition(func(c *core.Core) float64 { return 1 + float64(c.Cnt.SynEvents) })
}

// Step implements sim.Engine: one semi-synchronous pass. Compute phase:
// workers step their cores in parallel, performing the Synapse and Neuron
// phases, then resolve what fired and aggregate the deliveries into per-pair
// messages (compute). Barrier. Delivery phase: each worker drains the
// messages addressed to it into its cores' axonal delay rings. Barrier.
// The calling goroutine is worker 0; with one worker the tick runs inline.
//
//perf:hot
func (s *Sim) Step() {
	s.BeginTick()
	s.fork(computePhase) // barrier 1: all computation and message aggregation complete
	s.fork(drainPhase)   // barrier 2: all deliveries landed; safe to advance time
	s.EndTick()
}

// fork runs phase ph on every worker and returns when all have finished. The
// pool workers are signalled through their start channels, the caller runs
// worker 0's share, and waiting on wg is the barrier. A share without a pool
// worker (after Close) runs on the caller too: shares touch disjoint state,
// so their order is unobservable.
//
//perf:hot
func (e *engine) fork(ph phase) {
	e.wg.Add(len(e.peers))
	for _, ch := range e.peers {
		ch <- ph
	}
	e.run(0, ph)
	for w := len(e.peers) + 1; w < len(e.outbox); w++ {
		e.run(w, ph)
	}
	e.wg.Wait()
}

// run is worker w's share of phase ph.
//
//perf:hot
func (e *engine) run(w int, ph phase) {
	if ph == computePhase {
		e.compute(w)
	} else {
		e.drain(w)
	}
}

// compute is worker w's compute phase: the masked walk over its cores, then
// one pass over what fired that resolves each spike through the dispatch
// table, charges the worker's NoC ledger and files the delivery under the
// destination's owner — Compass's per-pair aggregation, with the message
// already in its wire form. What the table does not hold, and everything
// while a core is dead, takes sim.Part.Route.
//
//perf:hot
func (e *engine) compute(w int) {
	// The part is looked up every phase: Rebalance reallocates the parts.
	p := e.Part(w)
	if p == nil || uint(w) >= uint(len(e.outbox)) {
		return
	}
	tick, dead := e.Tick(), e.DeadFunc()
	out, d := e.outbox[w], e.Dispatch()
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
		if dw := uint(e.Owner(dv.Dst())); dw < uint(len(out)) {
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
func (e *engine) drain(w int) {
	p := e.Part(w)
	if p == nil {
		return
	}
	tick := e.Tick()
	for _, row := range e.outbox {
		if uint(w) >= uint(len(row)) {
			continue
		}
		// Emptied for the next compute phase before it is read: nothing
		// appends until the barrier after this phase.
		msgs := row[w]
		row[w] = msgs[:0]
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
	_ sim.Engine = (*Sim)(nil)
	_ io.Closer  = (*Sim)(nil)
)
