// Package core wires the substrates together: it builds each evaluated
// system (switch-based Dragonfly, switch-less Dragonfly, single switch,
// standalone C-group mesh), runs open-loop load points with Table IV
// parameters, and provides the per-figure experiment runners used by the
// benchmark harness and the sldffigures command.
//
// The package is declared deterministic: results feed figures, caches and
// the bitwise serial==parallel==cached equality contract, so sldfcheck
// flags map iteration, global RNG and wall-clock reads in non-test code.
//
//sldf:deterministic
package core

import (
	"errors"
	"fmt"
	"math"

	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// SystemKind identifies one of the evaluated network systems.
type SystemKind uint8

const (
	// SwitchDragonfly is the switch-based Dragonfly baseline ("SW-based").
	SwitchDragonfly SystemKind = iota
	// SwitchlessDragonfly is the paper's contribution ("SW-less").
	SwitchlessDragonfly
	// SingleSwitch is one non-blocking switch with terminals (Fig. 10a-b).
	SingleSwitch
	// MeshCGroup is a standalone wafer C-group mesh (Fig. 10a-b).
	MeshCGroup
)

// Config fully describes a system to simulate.
type Config struct {
	Kind SystemKind

	// DF parameterizes SwitchDragonfly.
	DF topology.DragonflyParams
	// SLDF parameterizes SwitchlessDragonfly.
	SLDF topology.SLDFParams
	// Terminals parameterizes SingleSwitch.
	Terminals int
	// ChipletDim/NoCDim parameterize MeshCGroup.
	ChipletDim int
	NoCDim     int

	// Scheme, Mode and IntraWidth select the variant: the SLDF VC
	// discipline, the routing mode, and the intra-C-group link bandwidth
	// multiplier (0 or 1 = paper uniform, 2 = "2B", 4 = "4B"). Each kind
	// implements only some variants (see ParseSystem); Build rejects the
	// rest.
	Scheme     routing.Scheme
	Mode       routing.Mode
	IntraWidth int32

	// Faults injects deterministic component failures at build time
	// (defective dies, cut cables) and switches routing to the fault-aware
	// algorithms; see topology.FaultSpec and the routing package. An empty
	// spec leaves the build bitwise identical to a fault-free one. Faulted
	// networks provision FaultVCs virtual channels per link so degraded
	// detours keep one VC per C-group traversal.
	Faults topology.FaultSpec

	// Churn schedules in-run component death and repair: a deterministic
	// fault timeline both cycle engines apply mid-simulation, with routing
	// recomputed and in-flight packets dropped or retried at every event
	// batch (see topology.FaultTimeline). A non-empty timeline builds the
	// system fault-grade (FaultVCs, fault-aware routing) from cycle zero so
	// survivors always have a detour discipline; an armed zero-event
	// timeline therefore simulates bitwise identically to the corresponding
	// static-fault build.
	Churn topology.FaultTimeline

	Seed uint64
	// Workers and WatchdogCycles shape execution, never measured results,
	// so cacheID leaves them out of the content address.
	Workers        int   //sldf:keyignore execution knob; results identical for any worker count
	WatchdogCycles int64 //sldf:keyignore execution knob; only bounds deadlock detection
}

// FaultVCs is the per-link virtual-channel provisioning of faulted builds:
// the netsim maximum, giving degraded detours the deepest available VC
// ladder. The fault-aware routing constructors verify the degraded
// diameter fits and fail with routing.ErrDegradedVCs otherwise.
const FaultVCs = 8

// SimParams are the measurement-window parameters (paper Table IV).
type SimParams struct {
	Warmup     int64 // cycles before the window opens
	Measure    int64 // window length
	ExtraDrain int64 // upper bound on the post-window tail (traffic stays on); see MeasureLoad
	PacketSize int32 // flits

	// Engine selects the simulation engine for the measurement. The
	// default, netsim.EngineActiveSet, skips quiescent routers and links;
	// netsim.EngineReference walks everything each cycle. Those two are
	// cycle engines and produce bitwise-identical statistics, so
	// serial-reference runs can cross-check active-set results (see the
	// engine equivalence tests). netsim.EngineFlow instead solves the
	// window analytically from a sampled traffic matrix — approximate, with
	// pinned error bounds validated in the cross-engine suite, but usable
	// orders of magnitude past the cycle engines' scale ceiling.
	Engine netsim.EngineKind

	// FlowWorkers sets the flow solver's intra-point parallelism under
	// EngineFlow (<= 0 keeps the solver serial). Like Workers and
	// WatchdogCycles it is a pure execution knob — statistics are
	// bit-identical for any value — so it is excluded from point cache keys.
	FlowWorkers int //sldf:keyignore execution knob; solver output is bit-identical for any worker count
	// FlowCold discards the flow solver's route-trace cache before every
	// solve, forcing cold-start behavior. Results are identical either way;
	// the knob exists for benchmarking and equivalence harnesses.
	FlowCold bool //sldf:keyignore execution knob; cold and warm caches solve to identical bits
}

// ErrSimParams reports a load point or collective no engine can measure: a
// negative warmup or drain cap, an empty window, an empty packet, an
// offered rate that is negative or not finite, or a collective with a
// negative volume, step bound or kill step. It also reports a routing mode
// the chosen engine cannot model (see checkEngine).
var ErrSimParams = errors.New("core: invalid simulation parameters")

// checkPoint rejects the load point (rate, sp) with ErrSimParams unless
// every window length and the rate are meaningful. Rate 0 is valid: an
// idle network is a point like any other.
func checkPoint(rate float64, sp SimParams) error {
	switch {
	case sp.Warmup < 0 || sp.Measure <= 0 || sp.ExtraDrain < 0:
		return fmt.Errorf("%w: warmup %d, measure %d, drain %d (want warmup >= 0, measure > 0, drain >= 0)",
			ErrSimParams, sp.Warmup, sp.Measure, sp.ExtraDrain)
	case sp.PacketSize <= 0:
		return fmt.Errorf("%w: packet size %d (want > 0)", ErrSimParams, sp.PacketSize)
	case rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0):
		return fmt.Errorf("%w: rate %g (want a finite rate >= 0)", ErrSimParams, rate)
	}
	return nil
}

// checkEngine rejects with ErrSimParams a routing mode the engine cannot
// model. UGAL (routing.Adaptive) chooses each packet's path from the
// channel occupancy the cycle engines snapshot every cycle; the flow
// engine traces one path per pair on a network that holds no packets, so
// every choice would be the minimal path, reported under UGAL's name.
func checkEngine(engine netsim.EngineKind, mode routing.Mode) error {
	if engine == netsim.EngineFlow && mode == routing.Adaptive {
		return fmt.Errorf("%w: the %v engine cannot model %v routing (use a cycle engine)", ErrSimParams, engine, mode)
	}
	return nil
}

// ParseEngine maps a CLI -engine value to its kind. The empty string is
// the default (active-set) engine.
func ParseEngine(name string) (netsim.EngineKind, error) {
	switch name {
	case "", "active-set":
		return netsim.EngineActiveSet, nil
	case "reference":
		return netsim.EngineReference, nil
	case "flow":
		return netsim.EngineFlow, nil
	}
	return 0, fmt.Errorf("core: unknown engine %q (want active-set, reference or flow)", name)
}

// ParseSize maps a CLI -size value to the matching switch-less and
// switch-based parameters of the balanced radix family.
func ParseSize(name string) (topology.SLDFParams, topology.DragonflyParams, error) {
	switch name {
	case "radix16":
		return Radix16SLDF(), Radix16DF(), nil
	case "radix24":
		return Radix24SLDF(), Radix24DF(), nil
	case "radix32":
		return Radix32SLDF(), Radix32DF(), nil
	case "radix56":
		return Radix56SLDF(), Radix56DF(), nil
	}
	return topology.SLDFParams{}, topology.DragonflyParams{},
		fmt.Errorf("core: unknown size %q (want radix16, radix24, radix32 or radix56)", name)
}

// DefaultSim returns the Table IV defaults: 4-flit packets, 5000 warmup,
// 10000 measured cycles.
func DefaultSim() SimParams {
	return SimParams{Warmup: 5000, Measure: 10000, ExtraDrain: 5000, PacketSize: 4}
}

// QuickSim returns CI-scale parameters for tests and -quick runs.
func QuickSim() SimParams {
	return SimParams{Warmup: 400, Measure: 800, ExtraDrain: 400, PacketSize: 4}
}

// Radix16SLDF returns the paper's small evaluated switch-less system:
// 2×2 chiplets of 2×2 NoC nodes per C-group, 12 external ports (7 local +
// 5 global), 8 C-groups per W-group, 41 W-groups, 1312 chips.
func Radix16SLDF() topology.SLDFParams {
	return topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 8, H: 5}
}

// Radix16DF returns the matching switch-based baseline: radix-16 switches
// with terminal:local:global = 4:7:5.
func Radix16DF() topology.DragonflyParams {
	return topology.DragonflyParams{P: 4, A: 8, H: 5}
}

// Radix32SLDF returns the paper's large evaluated system: 8 chips per
// C-group (4×2 chiplets), 24 external ports (15 local + 9 global), 16
// C-groups per W-group, 145 W-groups, 18560 chips.
func Radix32SLDF() topology.SLDFParams {
	return topology.SLDFParams{NoCDim: 2, ChipCols: 4, ChipRows: 2, AB: 16, H: 9}
}

// Radix32DF returns the large switch-based baseline (8:15:9).
func Radix32DF() topology.DragonflyParams {
	return topology.DragonflyParams{P: 8, A: 16, H: 9}
}

// Radix24SLDF is a mid-size stand-in for scalability studies at CI scale
// (6120 chips): used by -quick runs of Fig. 12.
func Radix24SLDF() topology.SLDFParams {
	return topology.SLDFParams{NoCDim: 2, ChipCols: 3, ChipRows: 2, AB: 12, H: 7}
}

// Radix24DF is the matching switch-based stand-in (6:11:7).
func Radix24DF() topology.DragonflyParams {
	return topology.DragonflyParams{P: 6, A: 12, H: 7}
}

// Radix56SLDF is the 100k+-chip rung of the balanced family (14 chips per
// C-group, 28 C-groups per W-group, 421 W-groups, 165 032 chips): far past
// the cycle engines' ceiling, it exists for the flow solver's scale
// validation and the warm-sweep wall-clock benchmarks.
func Radix56SLDF() topology.SLDFParams {
	return topology.SLDFParams{NoCDim: 2, ChipCols: 7, ChipRows: 2, AB: 28, H: 15}
}

// Radix56DF is the matching 165 032-terminal switch-based system (14:27:15).
func Radix56DF() topology.DragonflyParams {
	return topology.DragonflyParams{P: 14, A: 28, H: 15}
}

func (c Config) netOptions() netsim.NetworkOptions {
	return netsim.NetworkOptions{
		Seed:           c.Seed,
		Workers:        c.Workers,
		WatchdogCycles: c.WatchdogCycles,
	}
}
