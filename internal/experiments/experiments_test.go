package experiments

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"truenorth/internal/chip"
	"truenorth/internal/energy"
	"truenorth/internal/leakcheck"
	"truenorth/internal/netgen"
	"truenorth/internal/router"
	rt "truenorth/internal/runtime"
)

// tinyChar returns a fast characterization config for tests.
func tinyChar() CharConfig {
	return CharConfig{
		Grid:    router.Mesh{W: 4, H: 4},
		Warmup:  20,
		Ticks:   40,
		Seed:    1,
		Voltage: 0.75,
	}
}

// TestDriversCloseTheirEngines runs the Compass-backed drivers with a
// four-worker pool per engine: every pool goroutine must be stopped when
// the driver returns, not left for a finalizer after some later GC.
func TestDriversCloseTheirEngines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	leakcheck.Check(t)
	if _, err := Characterize(tinyChar()); err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureGoScaling(router.Mesh{W: 4, H: 4}, 8, []int{2, 4}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestCharacterizeCovers88Points(t *testing.T) {
	pts, err := Characterize(tinyChar())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 88 {
		t.Fatalf("characterized %d points, want 88", len(pts))
	}
	for _, p := range pts {
		if p.Point.RateHz > 0 && p.MeasuredRateHz == 0 {
			t.Fatalf("point %+v silent", p.Point)
		}
		if p.GSOPSPerW < 0 || math.IsNaN(p.GSOPSPerW) {
			t.Fatalf("point %+v: bad GSOPS/W %f", p.Point, p.GSOPSPerW)
		}
	}
}

func TestCharacterizeRatesTrackTargets(t *testing.T) {
	pts, err := Characterize(tinyChar())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Point.RateHz == 0 {
			continue
		}
		if math.Abs(p.MeasuredRateHz-p.Point.RateHz)/p.Point.RateHz > 0.25 {
			t.Errorf("point %+v: measured %.1f Hz", p.Point, p.MeasuredRateHz)
		}
		if p.Point.Syn > 0 && math.Abs(p.MeasuredSyn-float64(p.Point.Syn))/float64(p.Point.Syn) > 0.2 {
			t.Errorf("point %+v: measured %.1f syn/spike", p.Point, p.MeasuredSyn)
		}
	}
}

func TestCharacterizeContourShape(t *testing.T) {
	// Fig. 5a: GSOPS increases with both firing rate and synapse count;
	// Fig. 5e: the top-right corner is the most efficient.
	pts, err := Characterize(tinyChar())
	if err != nil {
		t.Fatal(err)
	}
	at := func(rate float64, syn int) CharPoint {
		for _, p := range pts {
			if p.Point.RateHz == rate && p.Point.Syn == syn {
				return p
			}
		}
		t.Fatalf("missing point %v/%d", rate, syn)
		return CharPoint{}
	}
	low := at(10, 51)
	high := at(200, 256)
	if high.GSOPS <= low.GSOPS {
		t.Fatalf("GSOPS not increasing: %.2f !> %.2f", high.GSOPS, low.GSOPS)
	}
	if high.GSOPSPerW <= low.GSOPSPerW {
		t.Fatalf("GSOPS/W not peaking at the top-right: %.1f !> %.1f", high.GSOPSPerW, low.GSOPSPerW)
	}
	if high.EnergyPerTickUJ <= low.EnergyPerTickUJ {
		t.Fatalf("energy per tick not increasing with activity")
	}
	// Fig. 5b: light load allows faster than real time, heavy load less so.
	if low.MaxTickKHz <= high.MaxTickKHz {
		t.Fatalf("max tick frequency not decreasing with load: %.1f !> %.1f", low.MaxTickKHz, high.MaxTickKHz)
	}
	if low.MaxTickKHz < 1 {
		t.Fatalf("light load below real time: %.2f kHz", low.MaxTickKHz)
	}
}

func TestScaleLoadToChip(t *testing.T) {
	l := energy.Load{SynEvents: 100, NeuronUpdates: 200, Spikes: 10, Hops: 50, Crossings: 4}
	s := ScaleLoadToChip(l, router.Mesh{W: 16, H: 16})
	if s.SynEvents != 1600 || s.NeuronUpdates != 3200 || s.Spikes != 160 {
		t.Fatalf("neuron scaling wrong: %+v", s)
	}
	if s.Hops != 50*16*4 {
		t.Fatalf("hop scaling wrong: %g, want %d", s.Hops, 50*16*4)
	}
}

func TestCharAndCompareTablesRender(t *testing.T) {
	pts, err := Characterize(tinyChar())
	if err != nil {
		t.Fatal(err)
	}
	tables := CharTables(pts)
	tables = append(tables, CompareTables(pts)...)
	tables = append(tables, VoltageSweep()...)
	tables = append(tables, Headline())
	if len(tables) != 4+4+2+1 {
		t.Fatalf("%d tables", len(tables))
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		if err := tb.Fprint(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Fig 5a", "Fig 5b", "Fig 5c", "Fig 5d", "Fig 5e", "Fig 5f", "Fig 6a", "Fig 6b", "Fig 6c", "Fig 6d", "Headline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tables missing %q", want)
		}
	}
}

func TestCompareAllRatios(t *testing.T) {
	pts, err := Characterize(tinyChar())
	if err != nil {
		t.Fatal(err)
	}
	cmp := CompareAll(pts)
	for _, c := range cmp {
		if c.Point.RateHz < 10 || c.Point.Syn < 51 {
			continue // very light loads sit below the contour floor
		}
		if c.BGQ.Speedup < 3 || c.BGQ.Speedup > 300 {
			t.Errorf("%+v: BGQ speedup %.1f outside one-to-two orders", c.Point, c.BGQ.Speedup)
		}
		if c.X86.Speedup < 50 || c.X86.Speedup > 5000 {
			t.Errorf("%+v: x86 speedup %.0f outside two-to-three orders", c.Point, c.X86.Speedup)
		}
		if c.BGQ.EnergyImprovement < 1e4 || c.X86.EnergyImprovement < 1e4 {
			t.Errorf("%+v: energy improvements %.2g / %.2g below 10^4", c.Point, c.BGQ.EnergyImprovement, c.X86.EnergyImprovement)
		}
	}
}

func TestRunAppsAllFive(t *testing.T) {
	if testing.Short() {
		t.Skip("app sweep in -short mode")
	}
	cfg := DefaultAppRunConfig()
	cfg.Frames = 3
	results, err := RunApps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d app results, want 5", len(results))
	}
	// The Section IV-B table echoes the paper's network sizes.
	paperNeurons := map[string]int{"Neovision": 660009, "Haar": 617567, "LBP": 813978, "Saccade": 612458, "Saliency": 889461}
	for _, r := range results {
		if r.PaperNeurons != paperNeurons[r.Name] {
			t.Errorf("%s: paper neurons %d, want %d", r.Name, r.PaperNeurons, paperNeurons[r.Name])
		}
		if r.Neurons == 0 || r.Cores == 0 {
			t.Errorf("%s: empty network", r.Name)
		}
		if r.MeasuredRateHz <= 0 {
			t.Errorf("%s: silent network", r.Name)
		}
		// Fig. 7: speedups of 1-2 orders, energy improvements near 10^5.
		if r.BGQ.Speedup < 3 {
			t.Errorf("%s: BGQ speedup %.1f", r.Name, r.BGQ.Speedup)
		}
		if r.X86.Speedup < 30 {
			t.Errorf("%s: x86 speedup %.1f", r.Name, r.X86.Speedup)
		}
		if r.BGQ.EnergyImprovement < 1e4 || r.X86.EnergyImprovement < 1e4 {
			t.Errorf("%s: energy improvements %.2g / %.2g", r.Name, r.BGQ.EnergyImprovement, r.X86.EnergyImprovement)
		}
	}
	var buf bytes.Buffer
	for _, tb := range AppTables(results) {
		if err := tb.Fprint(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"Section IV-B applications", "Fig 7a", "Fig 7b"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("app tables missing %q", want)
		}
	}
}

func TestBGQScalingShape(t *testing.T) {
	rows := BGQScaling()
	if len(rows) != 6*4+4 {
		t.Fatalf("%d scaling rows", len(rows))
	}
	var best, worst ScalingRow
	best.SecPerTick = math.Inf(1)
	for _, r := range rows {
		if r.System != "BG/Q" {
			continue
		}
		if r.SecPerTick < best.SecPerTick {
			best = r
		}
		if r.SecPerTick > worst.SecPerTick {
			worst = r
		}
	}
	if best.Hosts != 32 || best.Threads != 64 {
		t.Fatalf("best point %+v, want 32 hosts x 64 threads", best)
	}
	slowdown := best.SecPerTick / 1e-3
	if slowdown < 6 || slowdown > 25 {
		t.Fatalf("best point %.1fx slower than real time, want ≈12x", slowdown)
	}
	if worst.SecPerTick/best.SecPerTick < 4 {
		t.Fatalf("scaling range too flat: %.3f..%.3f s/tick", best.SecPerTick, worst.SecPerTick)
	}
	tb := ScalingTable(rows)
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureGoScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock scaling in -short mode")
	}
	grid := router.Mesh{W: 8, H: 8}
	rows, err := MeasureGoScaling(grid, 40, []int{1, 2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Speedup != 1 {
		t.Fatalf("baseline speedup %.2f", rows[0].Speedup)
	}
	var buf bytes.Buffer
	if err := MeasuredScalingTable(rows, grid).Fprint(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFutureSystems(t *testing.T) {
	rows := FutureSystems()
	if len(rows) != 3 {
		t.Fatalf("%d future rows", len(rows))
	}
	for _, r := range rows {
		if r.ProjectedW > r.Spec.BudgetW {
			t.Errorf("%s: projected %.0f W exceeds budget %.0f W", r.Spec.Name, r.ProjectedW, r.Spec.BudgetW)
		}
	}
	// The computed energy gains must reproduce the claimed orders.
	if g := rows[1].ComputedGain; g < 3000 || g > 13000 {
		t.Fatalf("rat-scale computed gain %.0f, want ≈6400", g)
	}
	if g := rows[2].ComputedGain; g < 60000 || g > 260000 {
		t.Fatalf("1%%-human computed gain %.0f, want ≈128000", g)
	}
	var buf bytes.Buffer
	if err := FutureTable(rows).Fprint(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRegressionSummaryTable(t *testing.T) {
	load := energy.TrueNorth().SyntheticLoad(20, 64)
	tb := RegressionSummary(load)
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "27.7 hours") {
		t.Fatal("regression table missing TrueNorth row")
	}
}

func TestNeovisionLoadMatchesPaper(t *testing.T) {
	l := NeovisionLoad()
	if l.NeuronUpdates != 660009 {
		t.Fatalf("neurons = %g", l.NeuronUpdates)
	}
	rate := l.Spikes / l.NeuronUpdates * 1000
	if math.Abs(rate-12.8) > 0.01 {
		t.Fatalf("rate = %.2f Hz, want 12.8", rate)
	}
}

func TestFaultSweepGracefulDegradation(t *testing.T) {
	cfg := DefaultFaultConfig()
	cfg.Grid = router.Mesh{W: 6, H: 6}
	cfg.Fractions = []float64{0, 0.05, 0.20}
	points, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	healthy := points[0]
	if healthy.Delivered != 1 || healthy.DetourFrac != 0 {
		t.Fatalf("healthy baseline impaired: %+v", healthy)
	}
	if healthy.ResidualRate < 40 {
		t.Fatalf("healthy rate %.1f Hz, want ≈50", healthy.ResidualRate)
	}
	mid, heavy := points[1], points[2]
	// Graceful, not catastrophic: delivery falls roughly with the dead
	// fraction (packets addressed to dead cores are lost; packets between
	// live cores still arrive), activity survives, detours appear.
	if mid.Delivered < 0.85 || heavy.Delivered < 0.6 {
		t.Fatalf("delivery collapsed: %.2f at 5%%, %.2f at 20%%", mid.Delivered, heavy.Delivered)
	}
	if heavy.Delivered >= mid.Delivered || mid.Delivered >= healthy.Delivered {
		t.Fatalf("delivery not monotone in faults: %.3f %.3f %.3f", healthy.Delivered, mid.Delivered, heavy.Delivered)
	}
	if heavy.DetourFrac == 0 {
		t.Fatal("no detours at 20% faults; rerouting untested")
	}
	if heavy.MeanHops <= healthy.MeanHops {
		t.Fatalf("detours should lengthen paths: %.2f vs %.2f", heavy.MeanHops, healthy.MeanHops)
	}
	if heavy.ResidualRate < 30 {
		t.Fatalf("surviving activity %.1f Hz collapsed", heavy.ResidualRate)
	}
	var buf bytes.Buffer
	if err := FaultTable(points).Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fault tolerance") {
		t.Fatal("table missing title")
	}
}

func TestTopologySweepLocalityReducesTraffic(t *testing.T) {
	cfg := DefaultTopologyConfig()
	cfg.Localities = []float64{0, 0.9}
	points, err := TopologySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uniform, clustered := points[0], points[1]
	if clustered.HopsPerSpike >= uniform.HopsPerSpike {
		t.Fatalf("clustered hops %.2f not below uniform %.2f", clustered.HopsPerSpike, uniform.HopsPerSpike)
	}
	if clustered.CrossPerSpike >= uniform.CrossPerSpike {
		t.Fatalf("clustered crossings %.3f not below uniform %.3f", clustered.CrossPerSpike, uniform.CrossPerSpike)
	}
	if clustered.CommEnergyFrac >= uniform.CommEnergyFrac {
		t.Fatalf("clustered comm energy %.3f not below uniform %.3f", clustered.CommEnergyFrac, uniform.CommEnergyFrac)
	}
	if uniform.HopsPerSpike < 4 {
		t.Fatalf("uniform hops/spike %.2f implausibly low for a 12-wide board", uniform.HopsPerSpike)
	}
	var buf bytes.Buffer
	if err := TopologyTable(points).Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Communication topology") {
		t.Fatal("table missing title")
	}
}

func TestBreakdownTable(t *testing.T) {
	tb := BreakdownTable()
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "flagship") {
		t.Fatal("breakdown table missing the flagship row")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("xxx", "1")
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "## T\n") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "xxx  1") {
		t.Fatalf("bad row alignment: %q", out)
	}
}

func TestSweepMatchesNetgen(t *testing.T) {
	if len(netgen.SweepPoints()) != 88 {
		t.Fatal("sweep definition drifted")
	}
}

// TestSweepLoadMatchesSyntheticLoad holds the measured load of each of the
// 88 sweep networks, run at 4×4 and scaled to the chip, to the closed-form
// energy.SyntheticLoad the Fig. 5b/5c/5f sweeps use: neuron evaluations
// exactly (the silicon scans every neuron every tick, whatever the kernel
// skipped), and spikes and synaptic events within netgen's 15 % rate
// tolerance (TestFiringRateMatchesTarget).
func TestSweepLoadMatchesSyntheticLoad(t *testing.T) {
	cfg := DefaultCharConfig()
	cfg.Grid = router.Mesh{W: 4, H: 4}
	pts, err := Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := energy.TrueNorth()
	within := func(got, want float64) bool { return math.Abs(got-want) <= 0.15*want }
	for _, p := range pts {
		want := m.SyntheticLoad(p.Point.RateHz, float64(p.Point.Syn))
		if p.Load.NeuronUpdates != want.NeuronUpdates {
			t.Errorf("point %+v: %.0f neuron updates a tick, synthetic %.0f", p.Point, p.Load.NeuronUpdates, want.NeuronUpdates)
		}
		if !within(p.Load.Spikes, want.Spikes) || !within(p.Load.SynEvents, want.SynEvents) {
			t.Errorf("point %+v: %.0f spikes and %.0f synaptic events a tick, synthetic %.0f and %.0f",
				p.Point, p.Load.Spikes, p.Load.SynEvents, want.Spikes, want.SynEvents)
		}
	}
}

// TestSweepLoadAgreesAcrossPaths reads one sweep network's load three ways
// — a runtime session's stats, energy.MeasureLoad on a fresh engine, and
// Characterize with no warm-up — and requires the same full-chip load and
// power from each, to the bit.
func TestSweepLoadAgreesAcrossPaths(t *testing.T) {
	const n, ticks = 45, 60
	cfg := DefaultCharConfig()
	cfg.Grid, cfg.Warmup, cfg.Ticks = router.Mesh{W: 4, H: 4}, 0, ticks
	configs, pt, err := netgen.BuildSweep(cfg.Grid, n, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := chip.New(cfg.Grid, configs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.New(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if err := s.Run(ctx, ticks); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := chip.New(cfg.Grid, configs)
	if err != nil {
		t.Fatal(err)
	}
	measured := energy.MeasureLoad(fresh, ticks)

	pts, err := Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	char := pts[n]
	if char.Point != pt {
		t.Fatalf("Characterize point %d is %+v, BuildSweep's %+v", n, char.Point, pt)
	}

	m := energy.TrueNorth()
	if st.Load != measured {
		t.Errorf("session load %+v, MeasureLoad %+v", st.Load, measured)
	}
	if st.PowerW != m.PowerW(measured, 1000, m.VRef) {
		t.Errorf("session power %g W, MeasureLoad's %g W", st.PowerW, m.PowerW(measured, 1000, m.VRef))
	}
	scaled := ScaleLoadToChip(st.Load, cfg.Grid)
	if scaled.Spikes == 0 || scaled.Hops == 0 {
		t.Fatalf("sweep network %d is silent (%+v); the comparison is vacuous", n, scaled)
	}
	if char.Load != scaled {
		t.Errorf("Characterize load %+v, session's scaled %+v", char.Load, scaled)
	}
	if want := m.EnergyPerTickJ(scaled, 1000, cfg.Voltage) * 1e6; char.EnergyPerTickUJ != want {
		t.Errorf("Characterize energy %g µJ a tick, session's %g µJ", char.EnergyPerTickUJ, want)
	}
	if want := m.GSOPSPerWatt(scaled, 1000, cfg.Voltage); char.GSOPSPerW != want {
		t.Errorf("Characterize %g GSOPS/W, session's %g", char.GSOPSPerW, want)
	}
}
