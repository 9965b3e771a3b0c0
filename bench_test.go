// Benchmark harness: one benchmark per paper table/figure plus simulator
// kernel micro-benchmarks and design-choice ablations. Each figure bench
// runs a scaled-down version of the corresponding experiment and reports
// the headline quantity (saturation rate, accepted throughput, pJ/bit) as
// custom benchmark metrics, so `go test -bench=.` regenerates the shape of
// the paper's evaluation.
package sldf_test

import (
	"fmt"
	"testing"

	"sldf/internal/analysis"
	"sldf/internal/core"
	"sldf/internal/cost"
	"sldf/internal/engine"
	"sldf/internal/layout"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
	"sldf/internal/traffic"
)

// benchSim is the per-iteration simulation window used by figure benches.
func benchSim() core.SimParams {
	return core.SimParams{Warmup: 200, Measure: 400, ExtraDrain: 200, PacketSize: 4}
}

// measure runs one load point and reports throughput/latency metrics.
func measure(b *testing.B, cfg core.Config, pattern string, rate float64) metrics.Point {
	b.Helper()
	sys, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor(pattern)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.MeasureLoad(pat, rate, benchSim())
	if err != nil {
		b.Fatal(err)
	}
	return res.Point
}

// --- Tables ---------------------------------------------------------------

func BenchmarkTable1ChipSurvey(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		for _, c := range cost.TableI() {
			tput += c.ThroughputTb()
		}
	}
	b.ReportMetric(tput/float64(b.N), "Tb/s-total")
}

func BenchmarkTable2HopCosts(b *testing.B) {
	var e float64
	for i := 0; i < b.N; i++ {
		for _, c := range analysis.TableII() {
			e += c.EnergyPJ
		}
	}
	_ = e
}

func BenchmarkTable3Comparison(b *testing.B) {
	var rows []cost.Row
	for i := 0; i < b.N; i++ {
		rows = cost.TableIII()
	}
	sl, sw := rows[7], rows[8]
	b.ReportMetric(float64(sl.Cabinets)/float64(sw.Cabinets), "cabinet-reduction")
	b.ReportMetric(sw.CableLengthE()/sl.CableLengthE(), "cable-ratio")
}

func BenchmarkTable4Equations(b *testing.B) {
	// The analytical model itself (Eqs. 1-7) across the balanced family.
	var n int
	for i := 0; i < b.N; i++ {
		for m := 2; m <= 8; m++ {
			p := analysis.Balanced(m)
			n += p.Terminals()
		}
	}
	_ = n
}

// --- Figures ---------------------------------------------------------------

func BenchmarkFig9Layout(b *testing.B) {
	var r layout.Report
	var err error
	for i := 0; i < b.N; i++ {
		r, err = layout.PaperPlan().Analyze()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.BisectionTBs, "TB/s-bisection")
	b.ReportMetric(float64(r.DiffPairs), "diff-pairs")
}

func BenchmarkFig10IntraCGroup(b *testing.B) {
	// Fig. 10(a): mesh C-group vs single switch under uniform traffic at an
	// offered load above the switch's capacity.
	var meshT, swT float64
	for i := 0; i < b.N; i++ {
		swT = measure(b, core.Config{Kind: core.SingleSwitch, Terminals: 4, Seed: 1},
			"uniform", 2.5).Throughput
		meshT = measure(b, core.Config{Kind: core.MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1},
			"uniform", 2.5).Throughput
	}
	b.ReportMetric(swT, "switch-flits/cyc/chip")
	b.ReportMetric(meshT, "mesh-flits/cyc/chip")
	b.ReportMetric(meshT/swT, "speedup")
}

func BenchmarkFig10Local(b *testing.B) {
	// Fig. 10(c): intra-W-group uniform at 1.4 flits/cycle/chip (above the
	// switch-based cap of 1).
	swb := core.Config{Kind: core.SwitchDragonfly, DF: core.Radix16DF(), Seed: 1}
	swb.DF.G = 1
	swl := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(), Seed: 1}
	swl.SLDF.G = 1
	var base, less float64
	for i := 0; i < b.N; i++ {
		base = measure(b, swb, "uniform", 1.4).Throughput
		less = measure(b, swl, "uniform", 1.4).Throughput
	}
	b.ReportMetric(base, "sw-based-flits/cyc/chip")
	b.ReportMetric(less, "sw-less-flits/cyc/chip")
}

func BenchmarkFig11Global(b *testing.B) {
	// Fig. 11(a): the full radix-16 system (1312 chips) under global
	// uniform traffic near the switch-based knee.
	swb := core.Config{Kind: core.SwitchDragonfly, DF: core.Radix16DF(), Seed: 1}
	swl2 := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(),
		IntraWidth: 2, Seed: 1}
	var base, less metrics.Point
	for i := 0; i < b.N; i++ {
		base = measure(b, swb, "uniform", 0.7)
		less = measure(b, swl2, "uniform", 0.7)
	}
	b.ReportMetric(base.Latency, "sw-based-latency")
	b.ReportMetric(less.Latency, "sw-less-2B-latency")
}

func BenchmarkFig12Scalability(b *testing.B) {
	// Fig. 12(b): the larger radix-24 stand-in; the 1B mesh bisection
	// bottleneck vs the 2B fix.
	swl := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix24SLDF(), Seed: 1}
	swl2 := swl
	swl2.IntraWidth = 2
	var t1, t2 float64
	for i := 0; i < b.N; i++ {
		t1 = measure(b, swl, "uniform", 0.6).Throughput
		t2 = measure(b, swl2, "uniform", 0.6).Throughput
	}
	b.ReportMetric(t1, "1B-flits/cyc/chip")
	b.ReportMetric(t2, "2B-flits/cyc/chip")
}

func BenchmarkFig13Adversarial(b *testing.B) {
	// Fig. 13(b): worst-case Wi→Wi+1, minimal vs Valiant, radix-16.
	cfgMin := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(), Seed: 1}
	cfgVal := cfgMin
	cfgVal.Mode = routing.Valiant
	var tMin, tVal float64
	for i := 0; i < b.N; i++ {
		tMin = measure(b, cfgMin, "worst-case", 0.2).Throughput
		tVal = measure(b, cfgVal, "worst-case", 0.2).Throughput
	}
	b.ReportMetric(tMin, "minimal-flits/cyc/chip")
	b.ReportMetric(tVal, "valiant-flits/cyc/chip")
	b.ReportMetric(tVal/tMin, "valiant-gain")
}

func BenchmarkFig14AllReduce(b *testing.B) {
	// Fig. 14(a): bidirectional ring on the C-group mesh vs the switch.
	var sw, mesh float64
	for i := 0; i < b.N; i++ {
		sw = measure(b, core.Config{Kind: core.SingleSwitch, Terminals: 4, Seed: 1},
			"ring-bidir", 3.0).Throughput
		mesh = measure(b, core.Config{Kind: core.MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1},
			"ring-bidir", 3.0).Throughput
	}
	b.ReportMetric(sw, "switch-flits/cyc/chip")
	b.ReportMetric(mesh, "mesh-flits/cyc/chip")
}

func BenchmarkFig15Energy(b *testing.B) {
	// Fig. 15(a): energy per transmission, switch-based vs switch-less,
	// radix-16 uniform at 0.3.
	swb := core.Config{Kind: core.SwitchDragonfly, DF: core.Radix16DF(), Seed: 1}
	swl := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(), Seed: 1}
	var eb, el float64
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			cfg core.Config
			out *float64
		}{{swb, &eb}, {swl, &el}} {
			sys, err := core.Build(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			pat, _ := sys.PatternFor("uniform")
			res, err := sys.MeasureLoad(pat, 0.3, benchSim())
			sys.Close()
			if err != nil {
				b.Fatal(err)
			}
			st := res.Stats
			*c.out = st.MeanHops(netsim.HopOnChip)*1 + st.MeanHops(netsim.HopShortReach)*1 +
				st.MeanHops(netsim.HopLongLocal)*20 + st.MeanHops(netsim.HopGlobal)*20
		}
	}
	b.ReportMetric(eb, "sw-based-pJ/bit")
	b.ReportMetric(el, "sw-less-pJ/bit")
}

// --- Ablations --------------------------------------------------------------

func BenchmarkAblationVCScheme(b *testing.B) {
	// Baseline (4 VC, XY) vs reduced (3 VC, restricted row-column-row)
	// under single-W-group uniform traffic: the VC saving costs throughput.
	base := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(), Seed: 1}
	base.SLDF.G = 1
	red := base
	red.Scheme = routing.ReducedVC
	var tb, tr float64
	for i := 0; i < b.N; i++ {
		tb = measure(b, base, "uniform", 1.2).Throughput
		tr = measure(b, red, "uniform", 1.2).Throughput
	}
	b.ReportMetric(tb, "baseline4vc-flits/cyc/chip")
	b.ReportMetric(tr, "reduced3vc-flits/cyc/chip")
}

func BenchmarkAblationMisrouteRestriction(b *testing.B) {
	// Unrestricted Valiant (4 VCs) vs restricted-lower Valiant (3 VCs,
	// paper Sec. IV-B) under the worst-case pattern: the VC saving costs
	// some path diversity (destinations with low indices have few or no
	// admissible intermediates).
	val := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(),
		Scheme: routing.ReducedVC, Mode: routing.Valiant, Seed: 1}
	low := val
	low.Mode = routing.ValiantLower
	var tv, tl float64
	for i := 0; i < b.N; i++ {
		tv = measure(b, val, "worst-case", 0.2).Throughput
		tl = measure(b, low, "worst-case", 0.2).Throughput
	}
	b.ReportMetric(tv, "valiant4vc-flits/cyc/chip")
	b.ReportMetric(tl, "lower3vc-flits/cyc/chip")
}

func BenchmarkAblationIntraWidth(b *testing.B) {
	// 1B vs 2B vs 4B intra-C-group bandwidth on global uniform (radix-16).
	for _, w := range []int32{1, 2, 4} {
		cfg := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(),
			IntraWidth: w, Seed: 1}
		cfg.SLDF.G = 1
		var t float64
		b.Run(map[int32]string{1: "1B", 2: "2B", 4: "4B"}[w], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t = measure(b, cfg, "uniform", 1.5).Throughput
			}
			b.ReportMetric(t, "flits/cyc/chip")
		})
	}
}

func BenchmarkAblationPortLayout(b *testing.B) {
	// Perimeter vs south-north port attachment under the baseline scheme.
	peri := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(), Seed: 1}
	peri.SLDF.G = 1
	sn := peri
	sn.SLDF.Layout = topology.LayoutSouthNorth
	var tp, ts float64
	for i := 0; i < b.N; i++ {
		tp = measure(b, peri, "uniform", 1.2).Throughput
		ts = measure(b, sn, "uniform", 1.2).Throughput
	}
	b.ReportMetric(tp, "perimeter-flits/cyc/chip")
	b.ReportMetric(ts, "southnorth-flits/cyc/chip")
}

// --- Campaign runner --------------------------------------------------------

// BenchmarkCampaignParallel tracks the sweep/campaign layer's speedup: the
// same multi-point single-W-group sweep run serially and with 4 concurrent
// point jobs (each simulation single-threaded so the comparison isolates
// the campaign fan-out). The jobs4 variant should run several times faster
// per op than jobs1 on a multi-core machine; results are identical. The
// lowest-point variant measures only the grid's lowest rate, where the
// active-set engine skips nearly every router and link.
func BenchmarkCampaignParallel(b *testing.B) {
	cfg := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(),
		Seed: 1, Workers: 1}
	cfg.SLDF.G = 1
	rates := core.RateGrid(0.2, 1.6, 0.2)
	plan := func(rates []float64) core.ExperimentPlan {
		return core.ExperimentPlan{Figures: []core.FigureSpec{{Name: "sweep", Series: []core.SeriesSpec{
			{Cfg: cfg, Pattern: "uniform", Rates: rates, Sim: benchSim()}}}}}
	}
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			var sat float64
			for i := 0; i < b.N; i++ {
				res, err := core.RunPlan(plan(rates), core.RunOptions{Jobs: jobs})
				if err != nil {
					b.Fatal(err)
				}
				sat = res.Figures[0].Series[0].Saturation(3)
			}
			b.ReportMetric(sat, "saturation")
			b.ReportMetric(float64(len(rates)), "points")
		})
	}
	// Eight copies of the grid's lowest rate: the campaign worker builds
	// once and resets between points, so this isolates the per-point cost
	// at the rate where the active-set engine skips nearly everything.
	low := make([]float64, 8)
	for i := range low {
		low[i] = rates[0]
	}
	b.Run("lowest-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunPlan(plan(low), core.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCampaignReset tracks the system-reuse win: measuring a load
// point on a reset network vs paying a fresh construction per point, at
// the sweep grid's lowest rate (mostly quiescent network) and near the
// saturation knee.
func BenchmarkCampaignReset(b *testing.B) {
	cfg := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(),
		Seed: 1, Workers: 1}
	cfg.SLDF.G = 1
	sys, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	pat, _ := sys.PatternFor("uniform")
	for _, rate := range []float64{0.2, 0.8} {
		b.Run(fmt.Sprintf("rate%.1f", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys.Reset()
				if _, err := sys.MeasureLoad(pat, rate, benchSim()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Flow solver ------------------------------------------------------------

// flowBenchSim is benchSim under the analytical engine.
func flowBenchSim() core.SimParams {
	sp := benchSim()
	sp.Engine = netsim.EngineFlow
	return sp
}

// BenchmarkFlowSolve times one analytical load point on the full radix-16
// system (1312 chips), cold (route-trace cache discarded every solve) vs
// warm (traces reused across Reset — the build-once/measure-many sweep
// configuration). The warm/cold ratio is the cache's per-point win. The
// cold variants also report the trace wall per traced hop; cold-par2 traces
// on two solver workers, so a cost that only parallel workers pay (such as
// two workers' state sharing a cache line) shows in its ns/hop.
func BenchmarkFlowSolve(b *testing.B) {
	cfg := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(),
		Seed: 1, Workers: 1}
	for _, mode := range []struct {
		name    string
		cold    bool
		workers int
	}{{"cold", true, 1}, {"cold-par2", true, 2}, {"warm", false, 1}} {
		b.Run(mode.name, func(b *testing.B) {
			sys, err := core.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			pat, _ := sys.PatternFor("uniform")
			sp := flowBenchSim()
			sp.FlowCold = mode.cold
			sp.FlowWorkers = mode.workers
			if _, err := sys.MeasureLoad(pat, 0.5, sp); err != nil {
				b.Fatal(err) // populate the cache (and retained buffers) once
			}
			sys.Reset()
			before := sys.Net.FlowSolverStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.MeasureLoad(pat, 0.5, sp); err != nil {
					b.Fatal(err)
				}
				sys.Reset()
			}
			fs := sys.Net.FlowSolverStats()
			b.ReportMetric(float64(fs.Traces)/float64(fs.Solves), "traces/solve")
			if hops := fs.TraceHops - before.TraceHops; mode.cold && hops > 0 {
				b.ReportMetric(float64(fs.TraceWall-before.TraceWall)/float64(hops), "ns/hop")
			}
		})
	}
}

// BenchmarkFlowSweepWarm times a full analytical rate-grid sweep on one
// system, cold vs warm: the cold variant re-traces every point's routes,
// while the warm variant traces them in one untimed sweep and serves every
// timed point from the cache.
func BenchmarkFlowSweepWarm(b *testing.B) {
	cfg := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(),
		Seed: 1, Workers: 1}
	rates := core.RateGrid(0.1, 0.8, 0.1)
	for _, mode := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"warm", false}} {
		b.Run(mode.name, func(b *testing.B) {
			sys, err := core.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			pat, _ := sys.PatternFor("uniform")
			sp := flowBenchSim()
			sp.FlowCold = mode.cold
			sweep := func() {
				for _, rate := range rates {
					if _, err := sys.MeasureLoad(pat, rate, sp); err != nil {
						b.Fatal(err)
					}
					sys.Reset()
				}
			}
			if !mode.cold {
				sweep()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.ReportMetric(float64(len(rates)), "points")
		})
	}
}

// --- Simulator kernel -------------------------------------------------------

// benchStep times one simulator cycle at steady state on a single-W-group
// system, for the given cycle engine and offered load. Low rates are where
// sweeps spend most of their points; the active-set engine's advantage
// comes from skipping the quiescent majority of routers and links there.
// Rates past the knee keep most queues waiting on busy outputs and
// credits, where allocation skips work that cannot change its outcome.
// The sw-based system's switches are ideal routers with lookahead.
func benchStep(b *testing.B, cfg core.Config, kind netsim.EngineKind, rate float64) {
	sys, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	sys.Net.SetEngine(kind)
	pat, _ := sys.PatternFor("uniform")
	var gen traffic.Rate
	gen.Init(pat, rate, 4, sys.NodesPerChip)
	sys.Net.SetTraffic(&gen, 4, netsim.DstSameIndex)
	for i := 0; i < 2000; i++ { // reach steady state before timing
		sys.Net.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Net.Step()
	}
	b.ReportMetric(float64(len(sys.Net.Routers)), "routers")
}

// benchStepCases runs benchStep over both single-W-group systems: sw-less
// at its historical rates (kept as rate0.2/rate0.8 so benchmark history
// stays comparable) plus a rate past its knee, and sw-based likewise.
func benchStepCases(b *testing.B, kind netsim.EngineKind) {
	swl := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(), Seed: 1, Workers: 1}
	swl.SLDF.G = 1
	swb := core.Config{Kind: core.SwitchDragonfly, DF: core.Radix16DF(), Seed: 1, Workers: 1}
	swb.DF.G = 1
	for _, c := range []struct {
		prefix string
		cfg    core.Config
		rates  []float64
	}{
		{"", swl, []float64{0.2, 0.8, 1.4}},
		{"sw-based-", swb, []float64{0.2, 0.8, 1.2}},
	} {
		for _, rate := range c.rates {
			b.Run(fmt.Sprintf("%srate%.1f", c.prefix, rate), func(b *testing.B) {
				benchStep(b, c.cfg, kind, rate)
			})
		}
	}
}

func BenchmarkStepActiveSet(b *testing.B) { benchStepCases(b, netsim.EngineActiveSet) }

func BenchmarkStepReference(b *testing.B) { benchStepCases(b, netsim.EngineReference) }

func BenchmarkKernelCycle(b *testing.B) {
	// Raw simulator speed: router-cycles per second on the single-W-group
	// system under uniform load.
	cfg := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(), Seed: 1}
	cfg.SLDF.G = 1
	sys, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	pat, _ := sys.PatternFor("uniform")
	var gen traffic.Rate
	gen.Init(pat, 0.8, 4, sys.NodesPerChip)
	sys.Net.SetTraffic(&gen, 4, netsim.DstSameIndex)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Net.Step()
	}
	b.ReportMetric(float64(len(sys.Net.Routers)), "routers")
}

func BenchmarkKernelBuildRadix16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := core.Build(core.Config{Kind: core.SwitchlessDragonfly,
			SLDF: core.Radix16SLDF(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		sys.Close()
	}
}

func BenchmarkKernelRNG(b *testing.B) {
	r := engine.NewRNG(1)
	var x uint64
	for i := 0; i < b.N; i++ {
		x += r.Uint64()
	}
	_ = x
}
