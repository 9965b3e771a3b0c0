package core

import (
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// This file declares the paper's evaluation as registry data: each figure
// registers an ExperimentSpec whose plan enumerates configurations ×
// patterns × rate grids (see registry.go for the spec types and fanout.go
// for RunPlan, the one generic runner). The historical hand-written
// Fig10…Fig15 runner functions are gone; their exact grids live on in these
// declarations, and RunPlan reproduces their output byte for byte.

// Scale selects experiment fidelity: ScaleQuick shrinks cycle counts, rate
// grids and (for Fig. 12) the large system so the whole campaign runs on a
// laptop/CI; ScalePaper uses Table IV windows and the paper's systems.
type Scale uint8

const (
	// ScaleQuick is CI-sized.
	ScaleQuick Scale = iota
	// ScalePaper is the paper's full configuration.
	ScalePaper
)

// Sim returns the measurement parameters for the scale.
func (s Scale) Sim() SimParams {
	if s == ScalePaper {
		return DefaultSim()
	}
	return SimParams{Warmup: 600, Measure: 1200, ExtraDrain: 600, PacketSize: 4}
}

// rates returns a figure's x-axis for the scale: the paper grid, or a
// thinned version for quick runs.
func (s Scale) rates(lo, hi, step float64) []float64 {
	if s == ScalePaper {
		return RateGrid(lo, hi, step)
	}
	return RateGrid(lo, hi, step*2)
}

const seed = 0x5EEDF00D

// Axis labels shared by every latency figure.
const (
	xLabelRate    = "Injection Rate (flits/cycle/chip)"
	yLabelLatency = "Average Latency (cycles)"
)

// latencyFigure assembles a FigureSpec with the standard axes.
func latencyFigure(name, title string, series ...SeriesSpec) FigureSpec {
	return FigureSpec{Name: name, Title: title,
		XLabel: xLabelRate, YLabel: yLabelLatency, Series: series}
}

// seriesOver builds one SeriesSpec per config over a shared pattern, grid
// and window (labels derive from the configs).
func seriesOver(cfgs []Config, pattern string, rates []float64, sp SimParams) []SeriesSpec {
	out := make([]SeriesSpec, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = SeriesSpec{Cfg: cfg, Pattern: pattern, Rates: rates, Sim: sp}
	}
	return out
}

func withMode(c Config, m routing.Mode) Config {
	c.Mode = m
	return c
}

// radix16Trio returns the standard small-system comparison set: switch-based
// baseline, switch-less, switch-less with doubled intra-C-group bandwidth.
// groups1 restricts the systems to a single W-group.
func radix16Trio(groups1 bool) (swb, swl, swl2 Config) {
	swb = Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: seed}
	swl = Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: seed}
	if groups1 {
		swb.DF.G = 1
		swl.SLDF.G = 1
	}
	swl2 = swl
	swl2.IntraWidth = 2
	return swb, swl, swl2
}

func init() {
	RegisterExperiment(ExperimentSpec{Name: "10",
		Title: "Fig. 10 — intra-C-group and intra-W-group performance",
		Plan:  planFig10})
	RegisterExperiment(ExperimentSpec{Name: "11",
		Title: "Fig. 11 — global performance, radix-16 system (1312 chips)",
		Plan:  planFig11})
	RegisterExperiment(ExperimentSpec{Name: "12",
		Title: "Fig. 12 — scalability: the large system (radix-32; radix-24 stand-in at quick scale)",
		Plan:  planFig12})
	RegisterExperiment(ExperimentSpec{Name: "13",
		Title: "Fig. 13 — adversarial traffic, minimal vs non-minimal routing",
		Plan:  planFig13})
	RegisterExperiment(ExperimentSpec{Name: "14",
		Title: "Fig. 14 — ring-AllReduce traffic, uni- and bidirectional",
		Plan:  planFig14})
	RegisterExperiment(ExperimentSpec{Name: "resilience",
		Title: "Resilience — latency under increasing channel/router failures (no paper counterpart)",
		Plan:  planResilience})
	RegisterExperiment(ExperimentSpec{Name: "15",
		Title: "Fig. 15 — average energy per transmission (Sec. V-C pricing)",
		Plan:  planFig15})
	RegisterExperiment(ExperimentSpec{Name: "collective",
		Title: "Fig. 4 — collective makespans: ring vs 2D vs hierarchical AllReduce and primitives",
		Plan:  planCollective})
	RegisterExperiment(ExperimentSpec{Name: "churn",
		Title: "Churn — makespan cost of a chip death mid-AllReduce (no paper counterpart)",
		Plan:  planChurn})
}

// planFig10 reproduces Fig. 10: (a,b) intra-C-group switch vs 2D-mesh under
// uniform and bit-reverse; (c-f) intra-W-group SW-based vs SW-less vs
// SW-less-2B under uniform, bit-reverse, bit-shuffle and bit-transpose.
func planFig10(scale Scale) ExperimentPlan {
	sp := scale.Sim()
	var plan ExperimentPlan

	// (a, b): one C-group of 2×2 chiplets (4×4 NoC routers) vs one switch
	// with 4 chips.
	intraCfgs := []Config{
		{Kind: SingleSwitch, Terminals: 4, Seed: seed},
		{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: seed},
	}
	for _, f := range []struct {
		name, title, pattern string
		lo, hi, step         float64
	}{
		{"fig10a", "Intra-C-group: Uniform", "uniform", 0.25, 3.5, 0.25},
		{"fig10b", "Intra-C-group: Bit-reverse", "bit-reverse", 0.2, 2.4, 0.2},
	} {
		plan.Figures = append(plan.Figures, latencyFigure(f.name, f.title,
			seriesOver(intraCfgs, f.pattern, scale.rates(f.lo, f.hi, f.step), sp)...))
	}

	// (c-f): one W-group (8 C-groups / 32 chips) in isolation.
	swb, swl, swl2 := radix16Trio(true)
	localCfgs := []Config{swb, swl, swl2}
	for _, f := range []struct {
		name, title, pattern string
		lo, hi, step         float64
	}{
		{"fig10c", "Local: Uniform", "uniform", 0.2, 2.0, 0.2},
		{"fig10d", "Local: Bit-reverse", "bit-reverse", 0.2, 1.6, 0.2},
		{"fig10e", "Local: Bit-shuffle", "bit-shuffle", 0.05, 0.5, 0.05},
		{"fig10f", "Local: Bit-transpose", "bit-transpose", 0.2, 1.8, 0.2},
	} {
		plan.Figures = append(plan.Figures, latencyFigure(f.name, f.title,
			seriesOver(localCfgs, f.pattern, scale.rates(f.lo, f.hi, f.step), sp)...))
	}
	return plan
}

// planFig11 reproduces Fig. 11: global performance of the full radix-16
// system (41 W-groups, 1312 chips) under uniform and bit-reverse traffic.
func planFig11(scale Scale) ExperimentPlan {
	sp := scale.Sim()
	swb, swl, swl2 := radix16Trio(false)
	cfgs := []Config{swb, swl, swl2}
	var plan ExperimentPlan
	for _, f := range []struct {
		name, title, pattern string
		lo, hi, step         float64
	}{
		{"fig11a", "Global: Uniform", "uniform", 0.1, 1.0, 0.1},
		{"fig11b", "Global: Bit-reverse", "bit-reverse", 0.1, 0.6, 0.1},
	} {
		plan.Figures = append(plan.Figures, latencyFigure(f.name, f.title,
			seriesOver(cfgs, f.pattern, scale.rates(f.lo, f.hi, f.step), sp)...))
	}
	return plan
}

// planFig12 reproduces Fig. 12 (scalability): the large system's local
// (intra-W-group traffic on the full network) and global performance.
// ScalePaper uses the radix-32 system (18560 chips); ScaleQuick a radix-24
// stand-in (6120 chips) with the same structure.
func planFig12(scale Scale) ExperimentPlan {
	sp := scale.Sim()
	dfP, slP := Radix24DF(), Radix24SLDF()
	if scale == ScalePaper {
		dfP, slP = Radix32DF(), Radix32SLDF()
	}
	swb := Config{Kind: SwitchDragonfly, DF: dfP, Seed: seed}
	swl := Config{Kind: SwitchlessDragonfly, SLDF: slP, Seed: seed}
	swl2 := swl
	swl2.IntraWidth = 2
	swl4 := swl
	swl4.IntraWidth = 4

	// The large systems dominate the campaign's runtime; quick scale uses a
	// deliberately coarse grid.
	localRates := scale.rates(0.25, 1.5, 0.25)
	globalRates := scale.rates(0.1, 0.8, 0.1)
	if scale == ScaleQuick {
		localRates = []float64{0.4, 0.9, 1.4}
		globalRates = []float64{0.2, 0.4, 0.6}
	}

	return ExperimentPlan{Figures: []FigureSpec{
		// (a) Local: traffic confined to W-group 0 of the full system.
		latencyFigure("fig12a", "Scalability: Local Uniform",
			seriesOver([]Config{swb, swl, swl2}, "local-uniform-wgroup", localRates, sp)...),
		// (b) Global uniform across the whole system.
		latencyFigure("fig12b", "Scalability: Global Uniform",
			seriesOver([]Config{swb, swl, swl2, swl4}, "uniform", globalRates, sp)...),
	}}
}

// planFig13 reproduces Fig. 13: adversarial traffic (hotspot over 4
// W-groups and the worst-case Wi→Wi+1 pattern) under minimal vs non-minimal
// routing on the radix-16 system.
func planFig13(scale Scale) ExperimentPlan {
	sp := scale.Sim()
	swb := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: seed}
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: seed}
	mk := func(mode routing.Mode, c Config, width int32) Config {
		c.Mode, c.IntraWidth = mode, width
		return c
	}
	cfgs := []Config{
		mk(routing.Minimal, swb, 0),
		mk(routing.Minimal, swl, 0),
		mk(routing.Valiant, swb, 0),
		mk(routing.Valiant, swl, 0),
		mk(routing.Valiant, swl, 2),
	}
	var plan ExperimentPlan
	for _, f := range []struct {
		name, title, pattern string
		lo, hi, step         float64
	}{
		{"fig13a", "Adversarial: Hotspot (4 W-groups)", "hotspot", 0.08, 0.8, 0.08},
		{"fig13b", "Adversarial: Worst-Case", "worst-case", 0.048, 0.48, 0.048},
	} {
		plan.Figures = append(plan.Figures, latencyFigure(f.name, f.title,
			seriesOver(cfgs, f.pattern, scale.rates(f.lo, f.hi, f.step), sp)...))
	}
	return plan
}

// planFig14 reproduces Fig. 14: ring-AllReduce traffic within a C-group (a)
// and within a W-group (b), with unidirectional and bidirectional rings.
func planFig14(scale Scale) ExperimentPlan {
	sp := scale.Sim()

	// (a) Intra-C-group: 4 chips on one switch vs the 4×4 C-group mesh.
	swbA := Config{Kind: SingleSwitch, Terminals: 4, Seed: seed}
	swlA := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: seed}
	ratesA := scale.rates(0.4, 4.0, 0.4)
	figA := latencyFigure("fig14a", "AllReduce: Intra-C-group",
		SeriesSpec{Cfg: swbA, Pattern: "ring", Label: "sw-based-uni", Rates: ratesA, Sim: sp},
		SeriesSpec{Cfg: swlA, Pattern: "ring", Label: "sw-less-uni", Rates: ratesA, Sim: sp},
		SeriesSpec{Cfg: swbA, Pattern: "ring-bidir", Label: "sw-based-bi", Rates: ratesA, Sim: sp},
		SeriesSpec{Cfg: swlA, Pattern: "ring-bidir", Label: "sw-less-bi", Rates: ratesA, Sim: sp},
	)

	// (b) Intra-W-group: single-W-group systems, ring over 32 chips.
	swbB, swlB, swlB2 := radix16Trio(true)
	ratesB := scale.rates(0.2, 2.0, 0.2)
	figB := latencyFigure("fig14b", "AllReduce: Intra-W-group",
		SeriesSpec{Cfg: swbB, Pattern: "ring", Label: "sw-based-uni", Rates: ratesB, Sim: sp},
		SeriesSpec{Cfg: swlB, Pattern: "ring", Label: "sw-less-uni", Rates: ratesB, Sim: sp},
		SeriesSpec{Cfg: swbB, Pattern: "ring-bidir", Label: "sw-based-bi", Rates: ratesB, Sim: sp},
		SeriesSpec{Cfg: swlB, Pattern: "ring-bidir", Label: "sw-less-bi", Rates: ratesB, Sim: sp},
		SeriesSpec{Cfg: swlB2, Pattern: "ring-bidir", Label: "sw-less-bi-2B", Rates: ratesB, Sim: sp},
	)
	return ExperimentPlan{Figures: []FigureSpec{figA, figB}}
}

// EnergyBar is one bar of Fig. 15; the container (and its CSV rendering)
// lives with the other result types in internal/metrics.
type EnergyBar = metrics.EnergyBar

// EnergyFigure is one panel of Fig. 15.
type EnergyFigure = metrics.EnergyFigure

// planFig15 reproduces Fig. 15: average energy per transmission for minimal
// and non-minimal routing on the small (radix-16) and large system,
// measured from delivered-packet hop traces under uniform traffic priced
// with the paper's simplified intra-C-group model (Sec. V-C).
func planFig15(scale Scale) ExperimentPlan {
	sp := scale.Sim()
	const rate = 0.3
	panel := func(name, title string, df, sl Config) EnergyFigureSpec {
		spec := EnergyFigureSpec{Name: name, Title: title}
		for _, cfg := range []Config{df, sl, withMode(df, routing.Valiant), withMode(sl, routing.Valiant)} {
			spec.Bars = append(spec.Bars, EnergyBarSpec{
				Cfg: cfg, Pattern: "uniform", Rate: rate, Label: cfg.Label(), Sim: sp})
		}
		return spec
	}

	dfL, slL := Radix24DF(), Radix24SLDF()
	if scale == ScalePaper {
		dfL, slL = Radix32DF(), Radix32SLDF()
	}
	return ExperimentPlan{Energy: []EnergyFigureSpec{
		panel("fig15a", "Energy: Small-Scale (radix-16)",
			Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: seed},
			Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: seed}),
		panel("fig15b", "Energy: Large-Scale",
			Config{Kind: SwitchDragonfly, DF: dfL, Seed: seed},
			Config{Kind: SwitchlessDragonfly, SLDF: slL, Seed: seed}),
	}}
}

// planCollective measures collective schedules end to end (paper Fig. 4's
// latency argument as exact makespans, not steady-state rates): every
// schedule of the library on each of the four system kinds, plus a
// multi-W-group panel where the hierarchical two-level schedule's
// O(m + G) dependent steps beat the flat ring's O(mG).
func planCollective(scale Scale) ExperimentPlan {
	volume := int64(256)
	if scale == ScalePaper {
		volume = 4096
	}
	kinds := []Config{
		{Kind: SingleSwitch, Terminals: 16, Seed: seed},
		{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: seed},
	}
	swb, swl, _ := radix16Trio(true)
	kinds = append(kinds, swb, swl)
	main := CollectiveFigureSpec{Name: "figcollective",
		Title: "Collective makespans (single group / W-group)"}
	for _, cfg := range kinds {
		for _, sch := range CollectiveSchedules() {
			main.Cases = append(main.Cases, CollectiveCaseSpec{
				Cfg: cfg, Schedule: sch, Volume: volume})
		}
	}

	// Across W-groups: tiny balanced 3-W-group systems at quick scale; the
	// full radix-16 network (41 W-groups, 1312 chips) at paper scale, where
	// the flat ring's 2(N−1) dependent steps are exactly the pathology the
	// hierarchical schedule removes — and too slow to simulate, so only the
	// sub-linear schedules run there.
	wg := CollectiveFigureSpec{Name: "figcollectivewg",
		Title: "Collective makespans across W-groups"}
	if scale == ScalePaper {
		swbFull, swlFull, _ := radix16Trio(false)
		for _, cfg := range []Config{swbFull, swlFull} {
			for _, sch := range []string{"hierarchical", "2d"} {
				wg.Cases = append(wg.Cases, CollectiveCaseSpec{
					Cfg: cfg, Schedule: sch, Volume: volume})
			}
		}
	} else {
		swbTiny := Config{Kind: SwitchDragonfly,
			DF: topology.DragonflyParams{P: 2, A: 2, H: 1}, Seed: seed}
		swlTiny := Config{Kind: SwitchlessDragonfly,
			SLDF: topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 1, AB: 2, H: 1}, Seed: seed}
		for _, cfg := range []Config{swbTiny, swlTiny} {
			for _, sch := range []string{"ring", "hierarchical", "2d"} {
				wg.Cases = append(wg.Cases, CollectiveCaseSpec{
					Cfg: cfg, Schedule: sch, Label: cfg.Label() + "-3wg", Volume: volume})
			}
		}
	}
	return ExperimentPlan{Collectives: []CollectiveFigureSpec{main, wg}}
}

// planChurn is the live-churn experiment (no counterpart in the paper,
// which simulates static networks): the exact makespan cost of one chip
// dying mid-flight during a ring AllReduce, on each of the four system
// kinds, under both stranded-packet policies on the redundant topologies.
// Every case runs the collective twice — undisturbed and with the death
// injected before step KillStep, after which the survivors re-close the
// ring and finish — so the reported cost is exact, not modeled.
func planChurn(scale Scale) ExperimentPlan {
	volume := int64(128)
	if scale == ScalePaper {
		volume = 1024
	}
	armed := func(cfg Config, policy netsim.DropPolicy) Config {
		cfg.Churn.Armed = true
		cfg.Churn.Policy = policy
		return cfg
	}
	fig := ChurnFigureSpec{Name: "figchurn",
		Title: "Churn resilience: chip death mid-AllReduce"}
	swb, swl, _ := radix16Trio(true)
	for _, policy := range []netsim.DropPolicy{netsim.DropInFlight, netsim.RetrySource} {
		for _, cfg := range []Config{{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: seed}, swb, swl} {
			fig.Cases = append(fig.Cases, ChurnCaseSpec{
				Cfg: armed(cfg, policy), Schedule: "ring", Label: cfg.Label() + "-" + policy.String(),
				Volume: volume, KillChip: 1, KillStep: 2})
		}
	}
	// The single switch has no redundancy: only its terminals can die, and
	// a dead chip's packets are unroutable — measure the drop policy only.
	fig.Cases = append(fig.Cases, ChurnCaseSpec{
		Cfg:      armed(Config{Kind: SingleSwitch, Terminals: 16, Seed: seed}, netsim.DropInFlight),
		Schedule: "ring", Label: "switch-drop", Volume: volume, KillChip: 1, KillStep: 2})
	return ExperimentPlan{Churn: []ChurnFigureSpec{fig}}
}

// planResilience is the degraded-topology experiment (no counterpart in the
// paper, which simulates pristine networks): mean latency and accepted
// throughput of the radix-16 systems under uniform traffic as an
// increasing fraction of channels (and, scaled at 1:2, routers) fails.
// Curves: the switch-based baseline and the switch-less system with
// minimal routing, plus the switch-less system with Valiant misrouting.
//
// The zero-fraction point is the pristine network under its paper routing;
// faulted points use the fault-aware routing (C-group-graph shortest
// paths, up*/down* inside C-groups), so part of the first step's latency
// offset is the discipline change, not the faults. Each point averages the
// fault seeds' clean draws; partitioned draws are dropped (quick scale
// keeps fractions low enough that this is rare).
func planResilience(scale Scale) ExperimentPlan {
	fractions := []float64{0, 0.02, 0.05, 0.1, 0.15}
	seeds := []uint64{1, 2, 3}
	if scale == ScaleQuick {
		fractions = []float64{0, 0.05, 0.1}
		seeds = []uint64{1, 2}
	}
	swb := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: seed}
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: seed}
	return ExperimentPlan{Resilience: []ResilienceFigureSpec{{
		Name:   "figres",
		Title:  "Resilience: Uniform @ 0.2 flits/cycle/chip",
		XLabel: "Channel Failure Fraction",
		YLabel: yLabelLatency,
		Opts: ResilienceOpts{
			Fractions:   fractions,
			RouterScale: 0.5,
			Seeds:       seeds,
			Pattern:     "uniform",
			Rate:        0.2,
			Sim:         scale.Sim(),
		},
		Series: []ResilienceSeriesSpec{
			{Cfg: swb, Label: "sw-based"},
			{Cfg: swl, Label: "sw-less"},
			{Cfg: withMode(swl, routing.Valiant), Label: "sw-less-mis"},
		},
	}}}
}
