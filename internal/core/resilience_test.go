package core

import (
	"errors"
	"reflect"
	"testing"

	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// faultedTinyCfg is a single-W-group radix-16 SLDF with a moderate seeded
// fault load, small enough for CI measurement windows.
func faultedTinyCfg(mode routing.Mode) Config {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 11, Mode: mode}
	cfg.SLDF.G = 1
	cfg.Faults = topology.FaultSpec{Seed: 4, LinkFraction: 0.08, RouterFraction: 0.04}
	return cfg
}

func TestBuildFaultedProvisionsAndDisables(t *testing.T) {
	sys, err := Build(faultedTinyCfg(routing.Minimal))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	routers, links := sys.Net.DisabledCounts()
	if routers == 0 || links == 0 {
		t.Fatalf("faulted build disabled %d routers, %d links; want both > 0", routers, links)
	}
	for _, l := range sys.Net.Links {
		if l.VCs != FaultVCs {
			t.Fatalf("faulted build provisions %d VCs on link %d, want %d", l.VCs, l.ID, FaultVCs)
		}
	}
}

func TestBuildEmptyFaultSpecIsPristine(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 11}
	cfg.SLDF.G = 1
	cfg.Faults = topology.FaultSpec{Seed: 99} // a bare seed injects nothing
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if r, l := sys.Net.DisabledCounts(); r != 0 || l != 0 {
		t.Fatalf("empty fault spec disabled %d routers and %d links", r, l)
	}
	for _, l := range sys.Net.Links {
		if l.VCs != routing.SLDFVCCount(routing.BaselineVC, routing.Minimal) {
			t.Fatalf("empty fault spec changed VC provisioning to %d", l.VCs)
		}
		break
	}
}

func TestBuildFaultedRejectsUnsupportedModes(t *testing.T) {
	cfg := faultedTinyCfg(routing.Minimal)
	cfg.Scheme = routing.ReducedVC
	if _, err := Build(cfg); err == nil {
		t.Fatal("reduced-VC faulted build accepted")
	}
	cfg = faultedTinyCfg(routing.Adaptive)
	if _, err := Build(cfg); err == nil {
		t.Fatal("adaptive faulted build accepted")
	}
	dfc := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: 1, Mode: routing.Valiant}
	dfc.Faults = topology.FaultSpec{Seed: 1, LinkFraction: 0.05}
	if _, err := Build(dfc); err == nil {
		t.Fatal("valiant faulted dragonfly accepted")
	}
	bad := faultedTinyCfg(routing.Minimal)
	bad.Faults.LinkFraction = 1.5
	if _, err := Build(bad); err == nil {
		t.Fatal("out-of-range fraction accepted")
	}
}

// TestFaultedMeasurementDeterministic locks the acceptance criterion that
// a fault sweep is deterministic for a fixed (FaultSpec, seed): identical
// Stats for repeated builds, across worker counts, and across cycle
// engines.
func TestFaultedMeasurementDeterministic(t *testing.T) {
	measure := func(mode routing.Mode, workers int, engine netsim.EngineKind) netsim.Stats {
		cfg := faultedTinyCfg(mode)
		cfg.Workers = workers
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		pat, err := sys.PatternFor("uniform")
		if err != nil {
			t.Fatal(err)
		}
		sp := tinySim()
		sp.Engine = engine
		res, err := sys.MeasureLoad(pat, 0.3, sp)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	for _, mode := range []routing.Mode{routing.Minimal, routing.Valiant} {
		base := measure(mode, 1, netsim.EngineActiveSet)
		if base.DeliveredPkts == 0 {
			t.Fatalf("%v: no traffic delivered", mode)
		}
		if again := measure(mode, 1, netsim.EngineActiveSet); !reflect.DeepEqual(base, again) {
			t.Fatalf("%v: repeated faulted build diverged", mode)
		}
		if par := measure(mode, 4, netsim.EngineActiveSet); !reflect.DeepEqual(base, par) {
			t.Fatalf("%v: 4-worker faulted run diverged from serial", mode)
		}
		if ref := measure(mode, 1, netsim.EngineReference); !reflect.DeepEqual(base, ref) {
			t.Fatalf("%v: reference engine diverged on faulted network", mode)
		}
	}
}

// resilienceCurve measures one resilience curve on the plan path — the
// jobs RunExperiment sends to the backend, reduced as resilienceFigure
// reduces them — and returns its per-fraction aggregates.
func resilienceCurve(cfg Config, o ResilienceOpts, opts RunOptions) (ResilienceSeries, error) {
	rs := ResilienceFigureSpec{Name: "res", Opts: o, Series: []ResilienceSeriesSpec{{Cfg: cfg}}}
	part, err := resiliencePart(rs, opts.Churn)
	if err != nil {
		return ResilienceSeries{}, err
	}
	pts, err := opts.executeGroups(part.groups)
	if err != nil {
		return ResilienceSeries{}, err
	}
	return resilienceSeries(o, cfg.Label(), pts[0]), nil
}

func TestResilienceSweepSmall(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 11}
	cfg.SLDF.G = 1
	opts := ResilienceOpts{
		Fractions:   []float64{0, 0.1},
		RouterScale: 0.5,
		Seeds:       []uint64{1, 2},
		Pattern:     "uniform",
		Rate:        0.3,
		Sim:         tinySim(),
	}
	serial, err := resilienceCurve(cfg, opts, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(serial.Points))
	}
	for _, p := range serial.Points {
		if p.Seeds != 2 {
			t.Fatalf("point %g measured %d seeds, want 2", p.Fraction, p.Seeds)
		}
	}
	if p0 := serial.Points[0]; p0.Clean() != 2 || p0.Latency <= 0 {
		t.Fatalf("pristine point unhealthy: %+v", p0)
	}
	// Parallel execution must be bitwise identical.
	parallel, err := resilienceCurve(cfg, opts, RunOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel resilience sweep diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	// The experiment's figure is the flattened curve, on the fraction axis.
	fig := runResilienceFigure(t, ResilienceFigureSpec{Name: "res", Opts: opts,
		Series: []ResilienceSeriesSpec{{Cfg: cfg}}}, RunOptions{Jobs: 2})
	if ms := fig.Series[0]; !reflect.DeepEqual(ms, serial.Series()) || ms.Points[1].Rate != 0.1 {
		t.Fatalf("figure series %+v, want the flattened curve %+v", ms, serial.Series())
	}
	empty := ExperimentSpec{Name: "res", Plan: func(Scale) ExperimentPlan {
		return ExperimentPlan{Resilience: []ResilienceFigureSpec{{Name: "res",
			Series: []ResilienceSeriesSpec{{Cfg: cfg}}}}}
	}}
	if _, err := RunExperiment(empty, ScaleQuick, RunOptions{}); err == nil {
		t.Fatal("empty grid accepted")
	}
}

// runResilienceFigure runs one resilience figure through RunExperiment.
func runResilienceFigure(t *testing.T, rs ResilienceFigureSpec, opts RunOptions) metrics.Figure {
	t.Helper()
	res, err := RunExperiment(ExperimentSpec{Name: rs.Name, Plan: func(Scale) ExperimentPlan {
		return ExperimentPlan{Resilience: []ResilienceFigureSpec{rs}}
	}}, ScaleQuick, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Figures[0]
}

// TestResilienceSeriesOmitsEmptyPoints: a fraction where every draw was
// infeasible or deadlocked must vanish from the figure's curve instead of
// rendering as an all-zero (perfect-looking) point.
func TestResilienceSeriesOmitsEmptyPoints(t *testing.T) {
	rs := ResilienceFigureSpec{Name: "res",
		Opts:   ResilienceOpts{Fractions: []float64{0, 0.5}, Seeds: []uint64{1, 2}},
		Series: []ResilienceSeriesSpec{{Label: "x"}}}
	// Draws in resiliencePart order: fraction 0 once, then both seeds of
	// fraction 0.5.
	draws := []metrics.Point{{Latency: 10},
		{Aux: []float64{drawInfeasible}}, {Aux: []float64{drawDeadlocked}}}
	fig := resilienceFigure(rs, [][]metrics.Point{draws})
	if s := fig.Series[0]; len(s.Points) != 1 || s.Points[0].Rate != 0 || s.Points[0].Latency != 10 {
		t.Fatalf("empty point not omitted: %+v", s.Points)
	}
	curve := resilienceSeries(rs.Opts, "x", draws)
	if p := curve.Points[1]; p.Infeasible != 1 || p.Deadlocked != 1 || p.Clean() != 0 {
		t.Fatalf("draw outcomes miscounted: %+v", p)
	}
}

// TestResilienceSweepCountsInfeasible forces partitions with an absurd
// failure fraction — C-groups that keep chips but lose every external
// channel — and checks they are counted per point, not fatal.
func TestResilienceSweepCountsInfeasible(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 3}
	cfg.SLDF.G = 1
	opts := ResilienceOpts{
		Fractions: []float64{0.6},
		Seeds:     []uint64{1, 2, 3, 4},
		Pattern:   "uniform",
		Rate:      0.2,
		Sim:       tinySim(),
	}
	rs, err := resilienceCurve(cfg, opts, RunOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Points[0].Infeasible == 0 {
		t.Fatalf("60%% channel loss never partitioned the W-group: %+v", rs.Points[0])
	}
}

// TestFaultedBuildTypedErrors checks that Build surfaces the routing
// layer's typed partition error for a deterministic partitioning spec.
func TestFaultedBuildTypedErrors(t *testing.T) {
	cfg := Config{Kind: SingleSwitch, Terminals: 4, Seed: 1}
	cfg.Faults = topology.FaultSpec{Links: []int32{0}}
	_, err := Build(cfg)
	if !errors.Is(err, routing.ErrPartitioned) {
		t.Fatalf("want ErrPartitioned, got %v", err)
	}
}
