package experiments

import (
	"fmt"
	"time"

	"truenorth/internal/compass"
	"truenorth/internal/energy"
	"truenorth/internal/netgen"
	"truenorth/internal/router"
	"truenorth/internal/sim"
	"truenorth/internal/vnperf"
)

// NeovisionLoad is the per-tick activity of the single-chip Neovision
// network the paper strong-scales in Fig. 8: 660,009 neurons at a 12.8 Hz
// mean rate with ~128 active synapses per spike.
func NeovisionLoad() energy.Load {
	const neurons = 660009.0
	spikes := neurons * 12.8 / 1000
	return energy.Load{
		NeuronUpdates: neurons,
		Spikes:        spikes,
		SynEvents:     spikes * 128,
		Hops:          spikes * 20,
	}
}

// ScalingRow is one operating point of Fig. 8.
type ScalingRow struct {
	System         string
	Hosts, Threads int
	// SecPerTick is the modeled run time per simulation tick.
	SecPerTick float64
	// PowerW is the modeled system power.
	PowerW float64
	// JoulePerSpike is the energy per delivered spike (the paper's
	// "Power Watts/spike" axis integrates to this over a tick).
	JoulePerSpike float64
}

// BGQScaling reproduces Fig. 8: Neovision run time and power on Blue
// Gene/Q over 1-32 hosts × 8-64 threads, plus the x86 reference points
// (1 host, 4-12 threads).
func BGQScaling() []ScalingRow {
	l := NeovisionLoad()
	var rows []ScalingRow
	bgq := vnperf.BGQ()
	for _, hosts := range []int{1, 2, 4, 8, 16, 32} {
		for _, threads := range []int{8, 16, 32, 64} {
			cfg := vnperf.Config{Hosts: hosts, Threads: threads}
			t := bgq.TickSeconds(l, cfg)
			p := bgq.PowerW(cfg)
			rows = append(rows, ScalingRow{
				System: "BG/Q", Hosts: hosts, Threads: threads,
				SecPerTick: t, PowerW: p, JoulePerSpike: t * p / l.Spikes,
			})
		}
	}
	x86 := vnperf.X86()
	for _, threads := range []int{4, 6, 8, 12} {
		cfg := vnperf.Config{Hosts: 1, Threads: threads}
		t := x86.TickSeconds(l, cfg)
		p := x86.PowerW(cfg)
		rows = append(rows, ScalingRow{
			System: "x86", Hosts: 1, Threads: threads,
			SecPerTick: t, PowerW: p, JoulePerSpike: t * p / l.Spikes,
		})
	}
	return rows
}

// ScalingTable renders Fig. 8.
func ScalingTable(rows []ScalingRow) *Table {
	t := &Table{
		Title:  "Fig 8: single-chip Neovision run time and power vs hosts and threads (paper: best point 12x slower than real time)",
		Header: []string{"system", "hosts", "threads", "s/tick", "x real time", "power W", "J/spike"},
	}
	for _, r := range rows {
		t.AddRow(r.System, fmt.Sprintf("%d", r.Hosts), fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.4f", r.SecPerTick), f1(r.SecPerTick/1e-3), f0(r.PowerW), g2(r.JoulePerSpike))
	}
	return t
}

// MeasuredScalingRow is one measured point of the Go Compass simulator's
// strong scaling on this host — the honest hardware-in-hand counterpart of
// Fig. 8's shape (see DESIGN.md §2).
type MeasuredScalingRow struct {
	Workers    int
	SecPerTick float64
	Speedup    float64 // vs 1 worker
}

// MeasureGoScaling runs a recurrent network (Neovision-like activity) on
// the Go Compass engine with increasing worker counts, measuring wall
// clock per tick.
func MeasureGoScaling(grid router.Mesh, ticks int, workerSweep []int, seed int64) ([]MeasuredScalingRow, error) {
	configs, err := netgen.Build(netgen.Params{Grid: grid, RateHz: 12.8, SynPerNeuron: 128, Seed: seed})
	if err != nil {
		return nil, err
	}
	var rows []MeasuredScalingRow
	base := 0.0
	for _, w := range workerSweep {
		eng, err := compass.New(grid, configs, sim.WithWorkers(w))
		if err != nil {
			return nil, err
		}
		eng.Run(ticks / 4) // warm up
		//lint:ignore tnlint/detrand wall-clock here is the measurement itself, not simulation state
		start := time.Now()
		eng.Run(ticks)
		per := time.Since(start).Seconds() / float64(ticks)
		eng.Close()
		if base == 0 {
			base = per
		}
		rows = append(rows, MeasuredScalingRow{Workers: w, SecPerTick: per, Speedup: base / per})
	}
	return rows, nil
}

// MeasuredScalingTable renders the measured Go strong scaling.
func MeasuredScalingTable(rows []MeasuredScalingRow, grid router.Mesh) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig 8 companion: measured Go Compass strong scaling on this host (%dx%d cores, 12.8Hz x 128 syn)", grid.W, grid.H),
		Header: []string{"workers", "s/tick", "speedup vs 1 worker"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Workers), fmt.Sprintf("%.5f", r.SecPerTick), f2(r.Speedup))
	}
	return t
}
