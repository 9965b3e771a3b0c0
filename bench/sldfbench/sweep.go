package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"sldf/internal/core"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
	"sldf/internal/traffic"
)

// sweep is a build-once, measure-many load sweep, the shape of every
// sldfsweep and slsim run: for each configuration, build the system,
// measure every rate with a Reset between points, release the system.
type sweep struct {
	cfgs    []core.Config
	pattern string
	rates   []float64
	sim     core.SimParams
}

// build runs core.Build after collecting the previous system's garbage, so
// a build's wall does not depend on what ran before it.
func build(cfg core.Config) (*core.System, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	sys, err := core.Build(cfg)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("build %s: %w", cfg.Label(), err)
	}
	return sys, d, nil
}

func (s sweep) setup(*runner) (time.Duration, error) {
	var total time.Duration
	for _, cfg := range s.cfgs {
		sys, d, err := build(cfg)
		if err != nil {
			return 0, err
		}
		sys.Close()
		total += d
	}
	return total, nil
}

func (s sweep) pass(r *runner) (wall, setup time.Duration, err error) {
	for _, cfg := range s.cfgs {
		sysSpan := r.tr.begin(r.passSpan, spanSystem)
		// Two collections on each side of the build empty sync.Pool
		// victim caches too, so the live-heap delta is the system alone.
		var before, built, after runtime.MemStats
		if r.tr != nil {
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		b := r.tr.begin(sysSpan, spanCoreBuild)
		sys, d, err := build(cfg)
		r.tr.end(b)
		if err != nil {
			return 0, 0, err
		}
		setup += d
		if r.tr != nil {
			runtime.ReadMemStats(&built)
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			r.tr.count(b, "alloc_b", float64(built.TotalAlloc-before.TotalAlloc))
			r.tr.count(b, "heap_b", float64(after.HeapAlloc)-float64(before.HeapAlloc))
			r.tr.count(b, "chips", float64(sys.Chips))
		}
		err = s.measure(r, sys, sysSpan)
		sys.Close()
		r.tr.end(sysSpan)
		if err != nil {
			return 0, 0, err
		}
	}
	r.endOutput()
	wall = r.last
	// The topology and routing layers are timed on their own after the
	// last point, so the traced pass's wall stays comparable with an
	// untraced one.
	if r.tr != nil {
		for _, cfg := range s.cfgs {
			if err := standaloneBuild(r.tr, r.passSpan, cfg); err != nil {
				return 0, 0, err
			}
		}
	}
	return wall, setup, nil
}

// measure runs every rate of the sweep on one built system.
func (s sweep) measure(r *runner, sys *core.System, sysSpan int) error {
	pat, err := sys.PatternFor(s.pattern)
	if err != nil {
		return err
	}
	var gen traffic.Rate
	for i, rate := range s.rates {
		if i > 0 {
			sys.Reset()
		}
		var res core.Result
		var err error
		switch {
		case r.tr == nil:
			res, err = sys.MeasureLoad(pat, rate, s.sim)
		case s.sim.Engine == netsim.EngineFlow:
			res, err = tracedFlowPoint(r.tr, sysSpan, sys, pat, rate, s.sim, i == 0)
		default:
			res, err = tracedCyclePoint(r.tr, sysSpan, sys, &gen, pat, rate, s.sim)
		}
		if err != nil {
			r.point(fmt.Sprintf("%s,%s,%.17g,error", sys.Label, s.pattern, rate), err)
			continue
		}
		r.point(pointLine(sys.Label, s.pattern, res.Point), checkPoint(sys, res, rate, s.sim))
	}
	return nil
}

// pointLine is the canonical golden line of one load point.
func pointLine(label, pattern string, p metrics.Point) string {
	return fmt.Sprintf("%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d,%d",
		label, pattern, p.Rate, p.Latency, p.P50, p.P99, p.Throughput, p.Dropped, p.Retried, p.Refused)
}

// checkPoint is the invariant check that stands in for a golden on seeds
// without one: no watchdog trips, packets conserved, and accepted
// throughput no higher than offered. Cycle engines inject by Bernoulli
// draws, so their window may carry a little more than the offered mean;
// the allowance is four standard deviations of the offered packet count.
func checkPoint(sys *core.System, res core.Result, rate float64, sp core.SimParams) error {
	st, p := res.Stats, res.Point
	if st.WatchdogTrips != 0 {
		return fmt.Errorf("%d watchdog trips", st.WatchdogTrips)
	}
	if st.InjectedPkts != st.DeliveredPkts+st.DroppedPkts+st.InFlightPkts || st.InFlightPkts < 0 {
		return fmt.Errorf("packets not conserved: injected %d, delivered %d, dropped %d, in flight %d",
			st.InjectedPkts, st.DeliveredPkts, st.DroppedPkts, st.InFlightPkts)
	}
	if math.IsNaN(p.Latency) || p.Latency <= 0 || p.Throughput <= 0 {
		return fmt.Errorf("degenerate point: latency %g, throughput %g", p.Latency, p.Throughput)
	}
	allow := 1e-9
	if sp.Engine == netsim.EngineFlow {
		if st.InFlightPkts != 0 {
			return fmt.Errorf("flow solve left %d packets in flight", st.InFlightPkts)
		}
	} else {
		// The arena counts live packets independently of the shard counters.
		alloc, free := sys.Net.ArenaSlots()
		if live := int64(alloc - free); live != st.InFlightPkts {
			return fmt.Errorf("packets not conserved: %d live in the arena, %d in flight by the counters",
				live, st.InFlightPkts)
		}
		if pkts := rate * float64(st.Cycles) * float64(st.Chips) / float64(sp.PacketSize); pkts > 0 {
			allow = 4 / math.Sqrt(pkts)
		}
	}
	if p.Throughput > rate*(1+allow) {
		return fmt.Errorf("accepted %.6g exceeds offered %.6g", p.Throughput, rate)
	}
	return nil
}

// tracedCyclePoint replays MeasureLoad's cycle-engine path through public
// calls so each phase gets its own span. It must reproduce MeasureLoad's
// point exactly; the golden check enforces that.
func tracedCyclePoint(tr *tracer, parent int, sys *core.System, gen *traffic.Rate,
	pat traffic.Pattern, rate float64, sp core.SimParams) (core.Result, error) {
	if len(sys.DeadChips()) > 0 || sys.Net.ChurnArmed() {
		return core.Result{}, errors.New("the traced cycle path covers fault-free systems only")
	}
	net := sys.Net
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := tr.begin(parent, spanPoint)
	net.SetEngine(sp.Engine)
	gen.Init(pat, rate, sp.PacketSize, sys.NodesPerChip)
	net.SetTraffic(gen, sp.PacketSize, netsim.DstSameIndex)
	phase := func(name string, cycles int64) error {
		id := tr.begin(p, name)
		err := net.Run(cycles)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s %s: %w", sys.Label, name, err)
		}
		return nil
	}
	err := phase(spanWarmup, sp.Warmup)
	if err == nil {
		net.StartMeasurement()
		err = phase(spanMeasure, sp.Measure)
	}
	if err == nil {
		net.StopMeasurement()
		err = phase(spanDrain, sp.ExtraDrain)
	}
	st := net.Snapshot()
	byClass, hottest := net.LinkUtilization(8)
	tr.end(p)
	runtime.ReadMemStats(&m1)
	alloc, _ := net.ArenaSlots()
	tr.count(p, "router_cycles", float64(len(net.Routers))*float64(sp.Warmup+sp.Measure+sp.ExtraDrain))
	tr.count(p, "alloc_b", float64(m1.TotalAlloc-m0.TotalAlloc))
	tr.count(p, "delivered_pkts", float64(st.DeliveredPkts))
	tr.count(p, "arena_slots", float64(alloc))
	countFailures(tr, p, st)
	if err != nil {
		return core.Result{}, err
	}
	return core.Result{
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
		},
		Stats:       st,
		Utilization: byClass,
		Hottest:     hottest,
	}, nil
}

// tracedFlowPoint measures one flow-engine point and splits it by the
// solver's own phase walls (FlowSolverStats deltas).
func tracedFlowPoint(tr *tracer, parent int, sys *core.System, pat traffic.Pattern,
	rate float64, sp core.SimParams, cold bool) (core.Result, error) {
	before := sys.Net.FlowSolverStats()
	p := tr.begin(parent, spanPoint)
	start := tr.now()
	res, err := sys.MeasureLoad(pat, rate, sp)
	tr.end(p)
	d := sys.Net.FlowSolverStats()
	tr.synthetic(p, start,
		[]string{spanFlowTrace, spanFlowWaterfill, spanFlowHist},
		[]time.Duration{d.TraceWall - before.TraceWall, d.WaterfillWall - before.WaterfillWall,
			d.HistWall - before.HistWall})
	for name, v := range map[string]int64{
		"traces":             d.Traces - before.Traces,
		"cache_hits":         d.CacheHits - before.CacheHits,
		"evicted":            d.Evicted - before.Evicted,
		"full_invalidations": d.FullInvalidations - before.FullInvalidations,
		"segments":           d.Segments - before.Segments,
		"waterfill_rounds":   d.WaterfillIters - before.WaterfillIters,
		"transpose_builds":   d.TransposeBuilds - before.TransposeBuilds,
	} {
		tr.count(p, name, float64(v))
	}
	tr.count(p, "flow", 1)
	if cold {
		tr.count(p, "cold", 1)
	}
	countFailures(tr, p, res.Stats)
	return res, err
}

// countFailures records a point's watchdog trips and churn losses.
func countFailures(tr *tracer, p int, st netsim.Stats) {
	tr.count(p, "watchdog_trips", float64(st.WatchdogTrips))
	tr.count(p, "dropped_pkts", float64(st.DroppedPkts))
	tr.count(p, "retried_pkts", float64(st.RetriedPkts))
	tr.count(p, "refused_pkts", float64(st.RefusedPkts))
}

// standaloneBuild times the topology and routing layers of cfg on their
// own — the same calls core.Build makes, outside it — and releases the
// result. Only the shapes the benchmark's workloads use are covered.
func standaloneBuild(tr *tracer, parent int, cfg core.Config) error {
	faulted := !cfg.Faults.Empty() || !cfg.Churn.Empty()
	opts := netsim.NetworkOptions{Seed: cfg.Seed, Workers: cfg.Workers, WatchdogCycles: cfg.WatchdogCycles}
	width := max(cfg.IntraWidth, 1)
	runtime.GC()
	switch cfg.Kind {
	case core.SwitchlessDragonfly:
		if cfg.Scheme == routing.ReducedVC || cfg.Mode == routing.ValiantLower {
			return errors.New("standalone build: reduced-VC SLDF is not a benchmark shape")
		}
		vcs := routing.SLDFVCCount(cfg.Scheme, cfg.Mode)
		if faulted {
			vcs = core.FaultVCs
		}
		t := tr.begin(parent, spanTopology)
		s, err := topology.BuildSLDF(cfg.SLDF, topology.DefaultLinkClasses(vcs, width), opts)
		tr.end(t)
		if err != nil {
			return fmt.Errorf("standalone topology: %w", err)
		}
		defer s.Net.Close()
		t = tr.begin(parent, spanRouting)
		defer tr.end(t)
		if faulted {
			fr, err := routing.NewFaultSLDFRouter(s, cfg.Scheme, cfg.Mode)
			if err != nil {
				return fmt.Errorf("standalone routing: %w", err)
			}
			fr.Install(s.Net)
			return nil
		}
		sr, err := routing.NewSLDFRouter(s, cfg.Scheme, cfg.Mode)
		if err != nil {
			return fmt.Errorf("standalone routing: %w", err)
		}
		sr.Install(s.Net)
		return nil
	case core.SwitchDragonfly:
		if faulted {
			return errors.New("standalone build: faulted Dragonfly is not a benchmark shape")
		}
		t := tr.begin(parent, spanTopology)
		df, err := topology.BuildDragonfly(cfg.DF,
			topology.DefaultLinkClasses(routing.DragonflyVCCount(cfg.Mode), width), opts)
		tr.end(t)
		if err != nil {
			return fmt.Errorf("standalone topology: %w", err)
		}
		defer df.Net.Close()
		t = tr.begin(parent, spanRouting)
		defer tr.end(t)
		route, err := routing.DragonflyRoute(df, cfg.Mode)
		if err != nil {
			return fmt.Errorf("standalone routing: %w", err)
		}
		df.Net.SetRoute(route)
		return nil
	}
	return fmt.Errorf("standalone build: system kind %s is not a benchmark shape", cfg.Kind)
}
