package core

import (
	"errors"
	"fmt"

	"sldf/internal/energy"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/topology"
	"sldf/internal/traffic"
)

// System is a built, routable network ready to run load points.
type System struct {
	Cfg   Config
	Net   *netsim.Network
	Label string

	Chips         int
	NodesPerChip  int
	Groups        int // W-groups (1 for single-switch / mesh systems)
	ChipsPerGroup int

	// churnDomain is the topology's fault domain (timeline victim
	// sampling), set by faulted builds.
	churnDomain topology.FaultDomain

	// rateGen is the reusable injection generator: MeasureLoad reinitializes
	// it in place so a sweep's measurement loop allocates nothing per point.
	rateGen traffic.Rate

	// flowDemandBuf is the retained demand-matrix buffer for the flow
	// engine's sampling pass (see flowDemands).
	flowDemandBuf []netsim.FlowDemand
}

// DeadChips returns the chips the fault set removed from the workload.
func (s *System) DeadChips() []int32 { return s.Net.DeadChips() }

// Build constructs the system described by cfg: the kind's topology, then
// either the fault set and fault-aware routing or the pristine routing.
func Build(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	entry := cfg.Kind.entry() // non-nil: validate checked the kind
	// A non-empty churn timeline also forces the fault-grade build: mid-run
	// deaths need the deep VC ladder and a routing discipline that can
	// recompute around holes from the very first event.
	faulted := !cfg.Faults.Empty() || !cfg.Churn.Empty()
	classes := topology.DefaultLinkClasses(entry.vcs(cfg, faulted), max(cfg.IntraWidth, 1))
	t, err := entry.build(cfg, classes, cfg.netOptions())
	if err != nil {
		return nil, err
	}
	sys := &System{Cfg: cfg, Net: t.net}
	if faulted {
		err = sys.installFaultRouting(t)
	} else {
		err = t.install()
	}
	if err != nil {
		t.net.Close()
		return nil, err
	}

	sys.Label = cfg.Label()
	sys.Chips = sys.Net.NumChips()
	// NodesPerChip is the pristine per-chip injector count, derived from
	// the configuration rather than the (possibly degraded) node tables:
	// the injection rate is split across this count, so a chip that lost
	// cores keeps the same per-node rate and simply offers proportionally
	// less load.
	sys.NodesPerChip = entry.nodesPerChip(cfg)
	sys.Groups = entry.groups(cfg)
	sys.ChipsPerGroup = sys.Chips / sys.Groups
	if !cfg.Churn.Empty() {
		if err := sys.armChurn(); err != nil {
			sys.Net.Close()
			return nil, err
		}
	}
	return sys, nil
}

// installFaultRouting applies the configured fault set to the built
// topology, hands the kind's fault-aware routing builder to the network —
// which builds it for the build-time fault state now and, under churn, once
// per new fault state it enters, sanitizing in-flight packets at every
// batch — and records the fault domain churn samples from.
func (sys *System) installFaultRouting(t kindTopo) error {
	if err := applyFaultSpec(t.net, sys.Cfg.Faults, t.domain(), t.closure); err != nil {
		return err
	}
	sys.churnDomain = t.domain()
	return t.net.SetFaultRouting(t.faultRoute)
}

// armChurn resolves the configured timeline against the topology's fault
// domain and installs it on the network, which from then on switches
// routing, updates chip liveness and retires packets the new tables cannot
// carry at every event batch.
func (sys *System) armChurn() error {
	events := sys.Cfg.Churn.Resolve(sys.churnDomain)
	return sys.Net.ScheduleChurn(events, sys.Cfg.Churn.Policy)
}

// ApplyChipKill immediately kills every surviving terminal router of the
// chip through the armed fault timeline — the programmatic "chip dies now"
// primitive behind mid-collective death experiments. Routing recomputes and
// stranded packets are dropped or retried per the timeline's policy before
// the call returns. Killing an already-dead chip is a no-op.
func (s *System) ApplyChipKill(chip int32) error {
	if !s.Net.ChurnArmed() {
		return fmt.Errorf("core: ApplyChipKill(%d) on %s without an armed churn timeline (set Cfg.Churn.Armed)", chip, s.Label)
	}
	if chip < 0 || int(chip) >= s.Chips {
		return fmt.Errorf("core: ApplyChipKill: chip %d out of range [0, %d)", chip, s.Chips)
	}
	nodes := s.Net.ChipNodes[chip]
	if len(nodes) == 0 {
		return nil
	}
	events := make([]netsim.TimedFault, 0, len(nodes))
	for _, id := range nodes {
		events = append(events, netsim.RouterFault(s.Net.Cycle, id, false))
	}
	return s.Net.InjectChurn(events)
}

// applyFaultSpec validates spec, resolves it against the topology's fault
// domain and disables the drawn components, tolerating chips that lose
// every terminal (they drop out of the workload; MeasureLoad filters
// traffic aimed at them through the network's AliveChips). closure, when
// non-nil, is the topology's fault-closure hook: nodes the drawn faults
// cut off from the surviving network (e.g. a core isolated inside its
// C-group mesh) are added to the fault set, so a chip keeps only reachable
// terminals.
func applyFaultSpec(net *netsim.Network, spec topology.FaultSpec, domain topology.FaultDomain,
	closure func([]netsim.NodeID, []int32) []netsim.NodeID) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	routers, links := spec.Resolve(domain)
	if closure != nil {
		routers = append(routers, closure(routers, links)...)
	}
	return net.ApplyFaults(routers, links)
}

// Close releases the system's worker pool.
func (s *System) Close() { s.Net.Close() }

// Reset returns the system to its just-built state — empty network, full
// credit buffers, RNG streams re-derived from the seed — so one
// construction can serve every load point of a series. A measurement on a
// reset system is bitwise identical to one on a fresh Build of the same
// configuration. On churn-armed systems the network restores its build-time
// fault state, chip liveness, routing and the event cursor, so a reset
// mid-churn system equals a fresh build with the same timeline.
func (s *System) Reset() { s.Net.Reset() }

// Result is one measured load point with its raw statistics and the
// Table II energy pricing of the observed hop mix.
type Result struct {
	Rate   float64
	Point  metrics.Point
	Stats  netsim.Stats
	Energy energy.Breakdown
	// Utilization is the aggregate link utilization per channel class over
	// the measurement window (1.0 = every link of the class saturated).
	Utilization [netsim.NumHopClasses]float64
	// Hottest lists the most loaded links, for bottleneck analysis.
	Hottest []netsim.LinkUtil
	// DrainCycles is the post-window tail the cycle engines actually ran,
	// at most SimParams.ExtraDrain (0 under the flow engine).
	DrainCycles int64
}

// MeasureLoad runs one open-loop load point on a freshly built system:
// warmup, measurement window, and a drain tail with traffic still offered.
// The tail ends on the first cycle after which no reported statistic can
// change (netsim.Network.WindowSettled), or after sp.ExtraDrain cycles:
// every result field is then bitwise identical to a run of the full tail
// except the all-time injected, delivered and in-flight packet counts.
// Invalid parameters fail with ErrSimParams. The system's network is
// consumed (statistics accumulate); Reset or build anew for the next point.
func (s *System) MeasureLoad(pat traffic.Pattern, rate float64, sp SimParams) (Result, error) {
	if err := checkPoint(rate, sp); err != nil {
		return Result{}, fmt.Errorf("%s: %w", s.Label, err)
	}
	s.Net.SetEngine(sp.Engine)
	if sp.Engine == netsim.EngineFlow {
		// The analytical path samples (and dead-filters) the pattern itself,
		// per churn segment.
		return s.measureLoadFlow(pat, rate, sp)
	}
	pat = traffic.FilterDead(pat, s.Net.AliveChips())
	s.rateGen.Init(pat, rate, sp.PacketSize, s.NodesPerChip)
	s.Net.SetTraffic(&s.rateGen, sp.PacketSize, netsim.DstSameIndex)
	if err := s.Net.Run(sp.Warmup); err != nil {
		return Result{}, fmt.Errorf("%s warmup: %w", s.Label, err)
	}
	s.Net.StartMeasurement()
	if err := s.Net.Run(sp.Measure); err != nil {
		return Result{}, fmt.Errorf("%s measure: %w", s.Label, err)
	}
	s.Net.StopMeasurement()
	drained, err := s.Net.RunUntil((*netsim.Network).WindowSettled, sp.ExtraDrain)
	if err != nil && !errors.Is(err, netsim.ErrCycleLimit) {
		return Result{}, fmt.Errorf("%s drain: %w", s.Label, err)
	}
	res := s.result(rate)
	res.DrainCycles = drained
	return res, nil
}

// result reads the finished measurement window off the network: the
// statistics snapshot, the per-class and hottest link utilization, and the
// Table II energy breakdown. Both engines' MeasureLoad paths end here.
func (s *System) result(rate float64) Result {
	st := s.Net.Snapshot()
	byClass, hottest := s.Net.LinkUtilization(8)
	return Result{
		Rate: rate,
		Point: metrics.Point{
			Rate:       rate,
			Latency:    st.MeanLatency(),
			P50:        float64(st.Latency.Quantile(0.5)),
			P99:        float64(st.Latency.Quantile(0.99)),
			Throughput: st.Throughput(),
			Dropped:    st.DroppedPkts,
			Retried:    st.RetriedPkts,
			Refused:    st.RefusedPkts,
			// Traffic crossed the window, yet none of its own packets
			// arrived: the latency knee lies below this rate.
			Undelivered: st.WindowPkts == 0 && st.WindowFlits > 0,
		},
		Stats:       st,
		Energy:      energy.FromStats(st, energy.TableII()),
		Utilization: byClass,
		Hottest:     hottest,
	}
}

// PatternFor builds a standard pattern scoped to this system's chips.
func (s *System) PatternFor(name string) (traffic.Pattern, error) {
	switch name {
	case "hotspot":
		n := 4
		if s.Groups < n {
			n = s.Groups
		}
		hot := make([]int32, n)
		for i := range hot {
			hot[i] = int32(i)
		}
		return traffic.Hotspot{ChipsPerGroup: int32(s.ChipsPerGroup), HotGroups: hot}, nil
	case "worst-case", "worstcase":
		return traffic.WorstCase{ChipsPerGroup: int32(s.ChipsPerGroup), Groups: int32(s.Groups)}, nil
	case "local-uniform-wgroup":
		// Uniform traffic confined to the chips of one W-group (the first
		// ChipsPerGroup chip IDs) — Fig. 12(a)'s local-performance workload,
		// named so the spec stays pure data.
		return traffic.Uniform{N: int32(s.ChipsPerGroup)}, nil
	case "ring", "ring-bidir":
		// A ring over the chips in their collective order: on a mesh
		// C-group the snake, so consecutive chips are physically adjacent,
		// as a real collective library would schedule it; on other systems
		// the chip ID order already walks C-groups consecutively.
		return traffic.NewRing(s.collectiveOrder(), name == "ring-bidir"), nil
	default:
		return traffic.ByName(name, int32(s.Chips))
	}
}
