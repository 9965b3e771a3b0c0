// Package cliflags declares the command-line flags the sldf commands share:
// one registration per flag group on a *flag.FlagSet, each resolving to a
// typed value or an error, plus the parse-and-exit plumbing of a command's
// run function. Command-specific wording belongs in each command's doc
// comment; the help strings here are the one definition of each flag.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sldf/internal/campaign"
	"sldf/internal/campaign/remote"
	"sldf/internal/core"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// ErrUsage reports a bad command line whose problem and usage the flag
// package already printed on the flag set's output.
var ErrUsage = errors.New("usage error")

// Parse parses args into fs, a flag.ContinueOnError set. It returns false
// when the command should stop: after -h with a nil error, or after a bad
// flag with ErrUsage.
func Parse(fs *flag.FlagSet, args []string) (bool, error) {
	err := fs.Parse(args)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, flag.ErrHelp):
		return false, nil
	}
	return false, ErrUsage
}

// Exit ends command name with the status of its run error: 0 for nil, 2
// (the flag package's usage-error status) for ErrUsage, otherwise 1 after
// printing the error on stderr.
func Exit(name string, err error) {
	if errors.Is(err, ErrUsage) {
		os.Exit(2)
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// PointFlags is the load-point group of the simulating commands: the
// scale, the traffic pattern, the measurement window, the seed and worker
// count, build-time faults, live churn and the engine.
type PointFlags struct {
	size, pattern   *string
	groups, workers *int
	warmup, measure *int64
	seed            *uint64
	faults          FaultFlags
	churn           ChurnFlag
	engine          EngineFlags
}

// AddPoint registers the point group: -size, -groups, -pattern, -warmup,
// -measure, -seed, -workers, the fault flags, -churn and the engine flags.
func AddPoint(fs *flag.FlagSet) PointFlags {
	return PointFlags{
		size:    fs.String("size", "radix16", "scale: radix16 | radix24 | radix32 | radix56"),
		groups:  fs.Int("groups", 0, "override W-group count (0 = the size's count, 1 = a single W-group)"),
		pattern: fs.String("pattern", "uniform", "traffic: uniform | bit-reverse | bit-shuffle | bit-transpose | hotspot | worst-case | ring | ring-bidir"),
		warmup:  fs.Int64("warmup", 5000, "warmup cycles"),
		measure: fs.Int64("measure", 10000, "measured cycles"),
		seed:    fs.Uint64("seed", 1, "simulation seed"),
		workers: fs.Int("workers", 0, "parallel workers per simulation (0 = GOMAXPROCS)"),
		faults:  AddFaults(fs),
		churn:   AddChurn(fs),
		engine:  AddEngine(fs, FlowPar|FlowCold),
	}
}

// Point is a resolved point group.
type Point struct {
	Pattern string
	// Sim is the measurement window: the flags' warmup and measure, a drain
	// cap of half the window, 4-flit packets, and the engine.
	Sim core.SimParams

	// sldf and df are the -size parameters with -groups applied; base
	// carries the seed, workers, faults and churn of every config.
	sldf topology.SLDFParams
	df   topology.DragonflyParams
	base core.Config
}

// Resolve resolves every flag of the group.
func (p PointFlags) Resolve() (Point, error) {
	sldf, df, err := core.ParseSize(*p.size)
	if err != nil {
		return Point{}, err
	}
	faults, err := p.faults.Resolve()
	if err != nil {
		return Point{}, err
	}
	churn, err := p.churn.Resolve()
	if err != nil {
		return Point{}, err
	}
	eng, err := p.engine.Resolve()
	if err != nil {
		return Point{}, err
	}
	switch {
	case *p.groups < 0:
		return Point{}, fmt.Errorf("-groups %d: want 0 (the size's count) or a positive W-group count", *p.groups)
	case *p.workers < 0:
		return Point{}, fmt.Errorf("-workers %d: want 0 (GOMAXPROCS) or a positive worker count", *p.workers)
	case *p.groups > 0:
		sldf.G, df.G = *p.groups, *p.groups
	}
	sp := core.SimParams{Warmup: *p.warmup, Measure: *p.measure,
		ExtraDrain: *p.measure / 2, PacketSize: 4}
	eng.Apply(&sp)
	return Point{Pattern: *p.pattern, Sim: sp, sldf: sldf, df: df,
		base: core.Config{Seed: *p.seed, Workers: *p.workers, Faults: faults, Churn: churn}}, nil
}

// Config resolves a system name of the core grammar (core.ParseSystem) to
// its configuration at the point's scale: the Dragonfly pair at -size with
// -groups applied, the single switch with 4 chips, one 2×2-chiplet C-group
// of 2×2 NoC routers for the mesh.
func (p Point) Config(name string) (core.Config, error) {
	v, err := core.ParseSystem(name)
	if err != nil {
		return core.Config{}, err
	}
	cfg := p.base
	cfg.Kind, cfg.IntraWidth, cfg.Mode, cfg.Scheme = v.Kind, v.IntraWidth, v.Mode, v.Scheme
	switch cfg.Kind {
	case core.SwitchlessDragonfly:
		cfg.SLDF = p.sldf
	case core.SwitchDragonfly:
		cfg.DF = p.df
	case core.SingleSwitch:
		cfg.Terminals = 4
	case core.MeshCGroup:
		cfg.ChipletDim, cfg.NoCDim = 2, 2
	}
	return cfg, nil
}

// FlowFlags selects which flow-solver flags AddEngine registers beside -engine.
type FlowFlags uint8

const (
	FlowPar  FlowFlags = 1 << iota // -flowpar
	FlowCold                       // -flowcold
)

// EngineFlags is the engine group: -engine plus the flow-solver flags the
// command registered.
type EngineFlags struct {
	name *string
	par  *int
	cold *bool
}

// AddEngine registers -engine and the requested flow-solver flags.
func AddEngine(fs *flag.FlagSet, flow FlowFlags) EngineFlags {
	e := EngineFlags{par: new(int), cold: new(bool)}
	e.name = fs.String("engine", "", "simulation engine: active-set (default) | reference | flow")
	if flow&FlowPar != 0 {
		fs.IntVar(e.par, "flowpar", 0, "flow engine: parallel trace/waterfill workers per solve (0 = serial; results identical for any value)")
	}
	if flow&FlowCold != 0 {
		fs.BoolVar(e.cold, "flowcold", false, "flow engine: re-trace every route before every solve (results identical, for timing baselines)")
	}
	return e
}

// Engine is a resolved engine group.
type Engine struct {
	Kind        netsim.EngineKind
	FlowWorkers int  // -flowpar
	FlowCold    bool // -flowcold
}

// Resolve parses -engine and rejects flow-solver flags given without
// -engine flow, which would otherwise be silently ignored.
func (e EngineFlags) Resolve() (Engine, error) {
	kind, err := core.ParseEngine(*e.name)
	if err != nil {
		return Engine{}, err
	}
	if *e.par < 0 {
		return Engine{}, fmt.Errorf("-flowpar %d: want 0 (serial) or a positive worker count", *e.par)
	}
	if kind != netsim.EngineFlow && (*e.par != 0 || *e.cold) {
		return Engine{}, errors.New("-flowpar and -flowcold apply to -engine flow only")
	}
	return Engine{Kind: kind, FlowWorkers: *e.par, FlowCold: *e.cold}, nil
}

// Apply sets the engine and flow-solver knobs of a measurement window.
func (e Engine) Apply(sp *core.SimParams) {
	sp.Engine, sp.FlowWorkers, sp.FlowCold = e.Kind, e.FlowWorkers, e.FlowCold
}

// ChurnFlag is the -churn flag.
type ChurnFlag struct{ spec *string }

// AddChurn registers -churn.
func AddChurn(fs *flag.FlagSet) ChurnFlag {
	return ChurnFlag{fs.String("churn", "", "in-run fault timeline, e.g. links=0.02,routers=0.01,seed=7,start=1000,end=5000,repair=2000,policy=retry (empty = no churn)")}
}

// Resolve parses the timeline; the empty flag is the empty timeline.
func (c ChurnFlag) Resolve() (topology.FaultTimeline, error) {
	return topology.ParseChurn(*c.spec)
}

// FaultFlags is the build-time fault group.
type FaultFlags struct {
	links, routers *float64
	seed           *uint64
}

// AddFaults registers -faults, -faultrouters and -faultseed.
func AddFaults(fs *flag.FlagSet) FaultFlags {
	return FaultFlags{
		links:   fs.Float64("faults", 0, "fraction of channels to fail at build time (0 = pristine network)"),
		routers: fs.Float64("faultrouters", 0, "fraction of redundant routers (port modules, spare cores) to fail"),
		seed:    fs.Uint64("faultseed", 1, "fault-sampling seed (same spec + seed = same failures)"),
	}
}

// Resolve returns the fault spec, rejecting fractions outside [0, 1]. Both
// fractions at zero give the empty spec, so the build stays bitwise
// identical to one without the flags, whatever -faultseed says.
func (f FaultFlags) Resolve() (topology.FaultSpec, error) {
	spec := topology.FaultSpec{Seed: *f.seed, LinkFraction: *f.links, RouterFraction: *f.routers}
	if err := spec.Validate(); err != nil {
		return topology.FaultSpec{}, err
	}
	if spec.LinkFraction == 0 && spec.RouterFraction == 0 {
		return topology.FaultSpec{}, nil
	}
	return spec, nil
}

// CampaignFlags is the campaign group: concurrency, point cache and remote
// workers.
type CampaignFlags struct {
	jobs          *int
	cache, remote *string
}

// AddCampaign registers -jobs, -cache and -remote.
func AddCampaign(fs *flag.FlagSet) CampaignFlags {
	return CampaignFlags{
		jobs:   fs.Int("jobs", 1, "points measured concurrently (results identical for any value)"),
		cache:  fs.String("cache", "", "directory for the on-disk point cache (empty = off); re-runs skip already-measured points"),
		remote: fs.String("remote", "", "comma-separated sldfd worker addresses; shards points across them (results identical to local)"),
	}
}

// Resolve opens the point cache behind a memory tier and connects the
// remote workers, naming the backend on errw. It returns the run options
// and the disk cache (nil without -cache) whose stats line the command
// prints at the end.
func (c CampaignFlags) Resolve(errw io.Writer) (core.RunOptions, *campaign.Cache, error) {
	if *c.jobs < 1 {
		return core.RunOptions{}, nil, fmt.Errorf("-jobs %d: want a positive count", *c.jobs)
	}
	opts := core.RunOptions{Jobs: *c.jobs}
	var disk *campaign.Cache
	if *c.cache != "" {
		var err error
		if opts.Store, disk, err = campaign.OpenTiered(*c.cache, 1024); err != nil {
			return opts, nil, err
		}
	}
	if *c.remote != "" {
		backend, err := remote.New(strings.Split(*c.remote, ","), remote.Options{})
		if err != nil {
			return opts, nil, err
		}
		if err := backend.Check(); err != nil {
			return opts, nil, err
		}
		opts.Backend = backend
		fmt.Fprintf(errw, "backend: %s\n", backend.Name())
	}
	return opts, disk, nil
}
