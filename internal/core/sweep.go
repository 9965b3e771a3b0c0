package core

import (
	"fmt"
	"math"

	"sldf/internal/campaign"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// RunOptions configure how RunPlan executes a plan's measurements.
type RunOptions struct {
	// Jobs is the number of measurement points run (or dispatched)
	// concurrently (<= 1 runs serially). Results are bitwise identical for
	// any value: every point starts from an identical just-built network
	// state and has its result slot fixed up front.
	Jobs int
	// Store, when non-nil, skips points already measured with an identical
	// (config, pattern, rate, sim-params) key and records new ones. Wrap
	// the disk cache in a memory tier (campaign.OpenTiered) so hot replays
	// skip the filesystem.
	Store campaign.PointStore
	// Backend selects where sweep points and figure jobs execute: nil or
	// campaign.LocalBackend{} runs them on this process's worker pool, a
	// remote backend shards them across worker daemons. Every backend is
	// result-transparent (see campaign.Backend), so the sweep output is
	// bitwise identical whichever executes it.
	Backend campaign.Backend
	// Engine, when non-default, overrides the simulation engine of every
	// measurement in the plan — the -engine flag of the figure CLIs. Cache
	// keys already partition by engine, so overridden runs never replay
	// another engine's points.
	Engine netsim.EngineKind
	// Churn, when non-empty, arms this in-run fault timeline on every
	// network a resilience figure builds, degrading the fault grid with
	// live component death and repair (the -churn flag of sldffigures).
	// Other experiment families ignore it; their configs carry their own
	// Config.Churn. The timeline lands in each resilience draw's Config,
	// so its job key carries it and churned draws never replay churn-free
	// points, nor the other way round.
	Churn topology.FaultTimeline
}

// RateGrid returns the inclusive grid lo, lo+step, ..., hi using integer
// stepping, so accumulated floating-point error cannot drop or duplicate
// the final rate point the way a `for r := lo; r <= hi; r += step` loop
// can. A hi that does not lie on the grid is truncated to the last on-grid
// point below it.
func RateGrid(lo, hi, step float64) []float64 {
	if step <= 0 || hi < lo {
		return nil
	}
	n := int(math.Floor((hi-lo)/step + 0.5))
	if float64(n)*step > hi-lo+step*1e-6 {
		n--
	}
	out := make([]float64, n+1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// cacheID canonically serializes every configuration field that affects
// measured results, once per built network: IntraWidth 0 and 1 both key as
// width=0, and a switch-less build keys under the scheme it builds
// (sldfScheme). Workers and WatchdogCycles are deliberately excluded: they
// change how a simulation executes, never what it measures. The fault
// component is appended only when faults are injected, keeping fault-free
// keys byte-compatible with existing caches.
//
//sldf:cachekey Config
//sldf:cachekey topology.FaultSpec
func (c Config) cacheID() string {
	scheme, width := c.Scheme, c.IntraWidth
	if c.Kind == SwitchlessDragonfly {
		scheme = sldfScheme(c)
	}
	if width == 1 {
		width = 0
	}
	id := fmt.Sprintf("kind=%d df=%+v sldf=%+v term=%d chiplet=%d noc=%d scheme=%d mode=%d width=%d seed=%#x",
		c.Kind, c.DF, c.SLDF, c.Terminals, c.ChipletDim, c.NoCDim,
		scheme, c.Mode, width, c.Seed)
	if !c.Faults.Empty() {
		id += fmt.Sprintf(" faults={seed:%#x lf:%.17g rf:%.17g links:%v routers:%v}",
			c.Faults.Seed, c.Faults.LinkFraction, c.Faults.RouterFraction,
			c.Faults.Links, c.Faults.Routers)
	}
	// The churn component is appended only when a timeline is armed,
	// keeping churn-free keys byte-compatible with existing caches.
	if ch := c.Churn.ChurnString(); ch != "" {
		id += " churn={" + ch + "}"
	}
	return id
}

// pointKey is the on-disk cache key for one measured load point. The
// explicit field list keeps keys byte-compatible with pre-Engine caches.
// A non-default engine gets its own cache slot even though both engines
// measure bitwise-identical results: a serial-reference cross-check must
// actually simulate, not replay the cached active-set point it is
// supposed to check. FlowWorkers and FlowCold are execution knobs
// (bit-identical results) and stay out of the key.
//
//sldf:cachekey SimParams
func pointKey(cfg Config, patternKey string, rate float64, sp SimParams) string {
	key := fmt.Sprintf("%s|pat=%s|rate=%.17g|sim={Warmup:%d Measure:%d ExtraDrain:%d PacketSize:%d}",
		cfg.cacheID(), patternKey, rate, sp.Warmup, sp.Measure, sp.ExtraDrain, sp.PacketSize)
	if sp.Engine != netsim.EngineActiveSet {
		key += "|engine=" + sp.Engine.String()
	}
	return key
}

// execute runs job specs on the options' backend (the local pool when nil)
// with the options' concurrency and store.
func (opts RunOptions) execute(specs []campaign.JobSpec) ([]metrics.Point, error) {
	backend := opts.Backend
	if backend == nil {
		backend = campaign.LocalBackend{}
	}
	return backend.Execute(specs, campaign.ExecOptions{Jobs: opts.Jobs, Store: opts.Store})
}

// workerSystem returns a worker-local system for cfg, building on first use
// and resetting to the just-built state on reuse. The campaign worker owns
// the system and closes it (releasing its goroutine pool) when the run
// finishes, on success and error paths alike; a job that needs another
// configuration closes the held system before building its own, so a
// worker never keeps two systems reachable.
func workerSystem(w *campaign.Worker, key string, cfg Config) (*System, error) {
	if v, ok := w.Cached(key); ok {
		sys := v.(*System)
		sys.Reset()
		return sys, nil
	}
	w.Close()
	sys, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	w.Store(key, sys)
	return sys, nil
}
