// Package sldf is a cycle-accurate simulation and analysis library for the
// Switch-Less Dragonfly on Wafers interconnection architecture (Feng & Ma,
// SC 2024), together with the switch-based baselines the paper compares
// against.
//
// The library builds four system kinds — a single non-blocking switch, a
// standalone wafer C-group mesh, a switch-based Dragonfly, and the
// switch-less Dragonfly on wafers — routes them with the paper's
// minimal/non-minimal algorithms under either the baseline (Algorithm 1) or
// reduced virtual-channel scheme, and measures latency/throughput/energy
// under the paper's synthetic, adversarial and collective workloads.
//
// Quick start:
//
//	cfg := sldf.Config{Kind: sldf.SwitchlessDragonfly, SLDF: sldf.Radix16SLDF()}
//	sys, err := sldf.Build(cfg)
//	if err != nil { ... }
//	defer sys.Close()
//	pat, _ := sys.PatternFor("uniform")
//	res, err := sys.MeasureLoad(pat, 0.5, sldf.DefaultSim())
//	fmt.Println(res.Point.Latency, res.Point.Throughput)
//
// The analytical side of the paper is exposed through the Analysis, Cost
// and Layout entry points (Eqs. 1–7, Table III, Fig. 9).
package sldf

import (
	"sldf/internal/analysis"
	"sldf/internal/core"
	"sldf/internal/cost"
	"sldf/internal/layout"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// Cycle engines (SimParams.Engine). Both produce bitwise-identical
// statistics; the active-set engine skips quiescent routers and links.
const (
	// EngineActiveSet is the default worklist-driven engine.
	EngineActiveSet = netsim.EngineActiveSet
	// EngineReference is the full-scan serial-reference engine, kept so any
	// active-set result can be cross-checked.
	EngineReference = netsim.EngineReference
)

// System kinds.
const (
	// SwitchDragonfly is the switch-based Dragonfly baseline.
	SwitchDragonfly = core.SwitchDragonfly
	// SwitchlessDragonfly is the paper's wafer-based architecture.
	SwitchlessDragonfly = core.SwitchlessDragonfly
	// SingleSwitch is one non-blocking switch with terminal chips.
	SingleSwitch = core.SingleSwitch
	// MeshCGroup is a standalone wafer C-group 2D mesh.
	MeshCGroup = core.MeshCGroup
)

// Routing modes and VC schemes.
const (
	// Minimal is shortest-path Dragonfly routing.
	Minimal = routing.Minimal
	// Valiant misroutes through a random intermediate W-group.
	Valiant = routing.Valiant
	// BaselineVC is Algorithm 1's one-VC-per-C-group discipline.
	BaselineVC = routing.BaselineVC
	// ReducedVC is the paper's merged-VC scheme (one extra VC vs the
	// traditional Dragonfly).
	ReducedVC = routing.ReducedVC
)

// Core configuration and execution types.
type (
	// Config describes a system to build.
	Config = core.Config
	// System is a built network ready to measure.
	System = core.System
	// SimParams are measurement-window parameters.
	SimParams = core.SimParams
	// Result is one measured load point.
	Result = core.Result
	// Series is a labelled latency/throughput curve.
	Series = metrics.Series
	// Figure is a named set of curves.
	Figure = metrics.Figure
	// Point is one entry of a Series.
	Point = metrics.Point
	// SLDFParams sizes a switch-less Dragonfly.
	SLDFParams = topology.SLDFParams
	// DragonflyParams sizes a switch-based Dragonfly.
	DragonflyParams = topology.DragonflyParams
	// EngineKind selects the cycle engine (see SimParams.Engine).
	EngineKind = netsim.EngineKind
)

// Live fault churn: a Config.Churn timeline kills and repairs components
// at seeded cycles mid-run, with routing recomputed and in-flight packets
// accounted per policy. See also System.ApplyChipKill and
// System.MeasureCollective with a CollectiveSpec.Kill.
type (
	// FaultTimeline is a deterministic in-run death/repair schedule
	// (Config.Churn); parse one from its CLI spec with ParseChurn.
	FaultTimeline = topology.FaultTimeline
	// TimedFault is one timeline event: a component death or repair at a
	// cycle.
	TimedFault = netsim.TimedFault
	// DropPolicy says what happens to packets a death strands.
	DropPolicy = netsim.DropPolicy
)

// Drop policies for packets stranded by a component death.
const (
	// DropInFlight drops stranded packets (counted in Stats.DroppedPkts).
	DropInFlight = netsim.DropInFlight
	// RetrySource re-injects stranded packets at their source (counted in
	// Stats.RetriedPkts).
	RetrySource = netsim.RetrySource
)

// ParseChurn parses a churn spec like
// "links=0.02,routers=0.01,seed=7,start=1000,end=5000,repair=2000,policy=retry"
// into an armed fault timeline; a blank spec returns an empty (disarmed)
// timeline.
func ParseChurn(spec string) (FaultTimeline, error) { return topology.ParseChurn(spec) }

// RouterFault builds a timeline event killing (repair=false) or repairing
// (repair=true) a router at the given cycle.
func RouterFault(cycle int64, router int32, repair bool) TimedFault {
	return netsim.RouterFault(cycle, router, repair)
}

// LinkFault builds a timeline event killing or repairing a link at the
// given cycle.
func LinkFault(cycle int64, link int32, repair bool) TimedFault {
	return netsim.LinkFault(cycle, link, repair)
}

// Build constructs the system described by cfg.
func Build(cfg Config) (*System, error) { return core.Build(cfg) }

// Sweep measures a named pattern over a list of injection rates, each point
// starting from an identical just-built network state.
func Sweep(cfg Config, pattern string, rates []float64, sp SimParams) (Series, error) {
	res, err := core.RunPlan(core.ExperimentPlan{Figures: []core.FigureSpec{{Name: "sweep",
		Series: []core.SeriesSpec{{Cfg: cfg, Pattern: pattern, Rates: rates, Sim: sp}}}}}, core.RunOptions{})
	if err != nil {
		return Series{Label: cfg.Label()}, err
	}
	return res.Figures[0].Series[0], nil
}

// RateGrid returns the inclusive injection-rate grid lo, lo+step, ..., hi
// using integer stepping (no accumulated floating-point drift).
func RateGrid(lo, hi, step float64) []float64 { return core.RateGrid(lo, hi, step) }

// DefaultSim returns the paper's Table IV measurement parameters.
func DefaultSim() SimParams { return core.DefaultSim() }

// QuickSim returns CI-scale measurement parameters.
func QuickSim() SimParams { return core.QuickSim() }

// Paper system configurations.
var (
	// Radix16SLDF is the paper's small evaluated system (1312 chips).
	Radix16SLDF = core.Radix16SLDF
	// Radix16DF is its switch-based baseline.
	Radix16DF = core.Radix16DF
	// Radix32SLDF is the paper's large evaluated system (18560 chips).
	Radix32SLDF = core.Radix32SLDF
	// Radix32DF is its switch-based baseline.
	Radix32DF = core.Radix32DF
)

// Analysis exposes the closed-form model of Sec. III-B (Eqs. 1–7).
type Analysis = analysis.Params

// TableIII returns the paper's Table III comparison rows.
func TableIII() []cost.Row { return cost.TableIII() }

// LayoutReport computes the Fig. 9 C-group feasibility numbers.
func LayoutReport() (layout.Report, error) { return layout.PaperPlan().Analyze() }
