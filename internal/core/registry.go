package core

import (
	"fmt"
	"slices"

	"sldf/internal/metrics"
	"sldf/internal/netsim"
)

// This file is the experiment registry: every evaluation figure of the
// paper is a data value — configurations × patterns × rate grid, plus a
// reducer selecting what the measurements become (latency curves, energy
// bars, resilience curves) — executed by one generic runner, RunPlan.
// Commands enumerate the registry instead of switching over hand-written
// runner functions, and a new experiment is a registration, not a code
// path.

// SeriesSpec is one curve of a latency figure: a configuration swept over
// a rate grid under a named traffic pattern.
type SeriesSpec struct {
	Cfg Config
	// Pattern is a PatternFor name. Named patterns keep the spec pure data,
	// which is what lets a remote backend execute it.
	Pattern string
	// Label overrides the config-derived series label when non-empty.
	Label string
	Rates []float64
	// Sim is the measurement window for every point of the series.
	Sim SimParams
}

// FigureSpec is one latency-vs-rate figure: a named set of series specs.
type FigureSpec struct {
	Name, Title    string
	XLabel, YLabel string
	Series         []SeriesSpec
}

// EnergyBarSpec is one bar of an energy figure: a single load point whose
// delivered-packet hop mix is priced by the paper's Sec. V-C model.
type EnergyBarSpec struct {
	Cfg     Config
	Pattern string
	Rate    float64
	Label   string
	Sim     SimParams
}

// EnergyFigureSpec is one energy-bar panel.
type EnergyFigureSpec struct {
	Name, Title string
	Bars        []EnergyBarSpec
}

// ResilienceSeriesSpec is one curve of a resilience figure; the shared
// failure grid lives on the figure spec.
type ResilienceSeriesSpec struct {
	Cfg   Config
	Label string
}

// ResilienceFigureSpec is one degraded-topology figure: systems measured
// at a fixed traffic point across a failure-fraction grid.
type ResilienceFigureSpec struct {
	Name, Title    string
	XLabel, YLabel string
	// Opts carries the failure grid, seeds and traffic point shared by all
	// series.
	Opts   ResilienceOpts
	Series []ResilienceSeriesSpec
}

// ExperimentPlan is the scale-resolved grid of one experiment. Exactly the
// spec kinds present are executed; an experiment usually has one kind.
type ExperimentPlan struct {
	Figures     []FigureSpec
	Energy      []EnergyFigureSpec
	Resilience  []ResilienceFigureSpec
	Collectives []CollectiveFigureSpec
	Churn       []ChurnFigureSpec
}

// ExperimentSpec is one registered experiment: a name, and the plan it
// expands to at a given scale.
type ExperimentSpec struct {
	// Name is the registry key ("10" … "15", "resilience").
	Name string
	// Title is a one-line description for registry listings.
	Title string
	// Plan resolves the declarative grid for the scale (quick grids are
	// thinned, the large system swaps radix).
	Plan func(Scale) ExperimentPlan
}

var experimentRegistry []ExperimentSpec

// RegisterExperiment adds a spec to the registry in enumeration order.
// Duplicate names panic: two specs for one figure would race for its
// output files.
func RegisterExperiment(spec ExperimentSpec) {
	if spec.Name == "" || spec.Plan == nil {
		panic("core: experiment spec needs a name and a plan")
	}
	for _, e := range experimentRegistry {
		if e.Name == spec.Name {
			panic(fmt.Sprintf("core: experiment %q registered twice", spec.Name))
		}
	}
	experimentRegistry = append(experimentRegistry, spec)
}

// Experiments returns the registered specs in registration order (the
// paper's figure order).
func Experiments() []ExperimentSpec {
	out := make([]ExperimentSpec, len(experimentRegistry))
	copy(out, experimentRegistry)
	return out
}

// ExperimentNames returns the registered names in registration order.
func ExperimentNames() []string {
	names := make([]string, len(experimentRegistry))
	for i, e := range experimentRegistry {
		names[i] = e.Name
	}
	return names
}

// LookupExperiment finds a registered spec by name.
func LookupExperiment(name string) (ExperimentSpec, bool) {
	for _, e := range experimentRegistry {
		if e.Name == name {
			return e, true
		}
	}
	return ExperimentSpec{}, false
}

// ExperimentResult is the output of one experiment run: latency/resilience
// figures, energy panels and/or collective-makespan panels.
type ExperimentResult struct {
	Figures     []metrics.Figure
	Energy      []EnergyFigure
	Collectives []metrics.CollectiveFigure
	Churn       []metrics.ChurnFigure
	// Resilience holds each resilience figure's fault-draw accounting; the
	// figure's curves are in Figures under the same name.
	Resilience []ResilienceDraws
}

// RunExperiment runs a registered experiment's plan at the given scale
// through RunPlan.
func RunExperiment(spec ExperimentSpec, scale Scale, opts RunOptions) (ExperimentResult, error) {
	return RunPlan(spec.Plan(scale), opts)
}

// applyEngineOverride rewrites every measurement of a resolved plan to run
// under the given engine (RunOptions.Engine, the figure CLIs' -engine
// flag). It rewrites copies of the plan's spec slices, so the caller's plan
// keeps its engines. The default engine leaves the plan untouched, so specs
// keep their own per-series engine choices unless the caller overrides.
func applyEngineOverride(plan *ExperimentPlan, engine netsim.EngineKind) {
	if engine == netsim.EngineActiveSet {
		return
	}
	plan.Figures = rewritten(plan.Figures, func(fs *FigureSpec) {
		fs.Series = rewritten(fs.Series, func(ss *SeriesSpec) { ss.Sim.Engine = engine })
	})
	plan.Energy = rewritten(plan.Energy, func(es *EnergyFigureSpec) {
		es.Bars = rewritten(es.Bars, func(bar *EnergyBarSpec) { bar.Sim.Engine = engine })
	})
	plan.Resilience = rewritten(plan.Resilience, func(rs *ResilienceFigureSpec) { rs.Opts.Sim.Engine = engine })
	plan.Collectives = rewritten(plan.Collectives, func(fs *CollectiveFigureSpec) {
		fs.Cases = rewritten(fs.Cases, func(c *CollectiveCaseSpec) { c.Engine = engine })
	})
	plan.Churn = rewritten(plan.Churn, func(fs *ChurnFigureSpec) {
		fs.Cases = rewritten(fs.Cases, func(c *ChurnCaseSpec) { c.Engine = engine })
	})
}

// rewritten returns a copy of specs with set applied to every element.
func rewritten[T any](specs []T, set func(*T)) []T {
	out := slices.Clone(specs)
	for i := range out {
		set(&out[i])
	}
	return out
}

// energyPart lowers an energy panel to one energy-family point job per bar.
func energyPart(es EnergyFigureSpec) (planPart, error) {
	jobs := make([]planJob, len(es.Bars))
	for i, bar := range es.Bars {
		job, err := pointPlanJob(energyFamily, bar.Cfg, bar.Pattern, bar.Rate, bar.Sim)
		if err != nil {
			return planPart{}, named(es.Name, err)
		}
		jobs[i] = job
	}
	return planPart{[]jobGroup{{es.Name, jobs}}, func(res *ExperimentResult, pts [][]metrics.Point) {
		res.Energy = append(res.Energy, energyFigure(es, pts[0]))
	}}, nil
}

// energyFigure assembles a panel from its bars' points, whose Aux carries
// the priced intra/inter pJ/bit.
func energyFigure(es EnergyFigureSpec, pts []metrics.Point) EnergyFigure {
	fig := EnergyFigure{Name: es.Name, Title: es.Title, Bars: make([]EnergyBar, len(es.Bars))}
	for i, bar := range es.Bars {
		fig.Bars[i] = EnergyBar{Label: bar.Label, Intra: pts[i].Aux[0], Inter: pts[i].Aux[1]}
	}
	return fig
}
