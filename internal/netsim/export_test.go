package netsim

import (
	"fmt"
	"math"
	"slices"
)

// CheckServedPaths serves demands for the network's current fault state
// exactly as a solve segment does, then checks every served route against
// a fresh trace under fresh: the same success, base latency, hop mix and
// path. differing counts the distinct pairs served from the state's own
// entries rather than the reference layer.
func (n *Network) CheckServedPaths(demands []FlowDemand, size int32, fresh RouteFunc) (differing int, err error) {
	fl := n.flowSolver()
	n.flowBuildFlows(fl, fl.record(), demands, size)
	installed := n.route
	n.route = fresh
	defer func() { n.route = installed }()
	c := fl.cache
	seq := make([]int, len(n.ChipNodes))
	own := map[uint64]bool{}
	var ts flowWorker
	for _, d := range demands {
		srcNodes, dstNodes := n.ChipNodes[d.Src], n.ChipNodes[d.Dst]
		if d.Rate <= 0 || len(srcNodes) == 0 || len(dstNodes) == 0 {
			continue
		}
		idx := seq[d.Src] % len(srcNodes)
		seq[d.Src]++
		src, dst := srcNodes[idx], dstNodes[idx%len(dstNodes)]
		key := pairKey(src, dst)
		ei, need, hit := c.lookup(key)
		if need || !hit {
			return 0, fmt.Errorf("pair %d->%d not served from the cache after the build", src, dst)
		}
		if _, ref := c.find(key); ei != ref {
			own[key] = true
		}
		e := c.entries[ei]
		ts.buf = ts.buf[:0]
		res := n.traceOne(&ts, src, dst, size)
		buf := ts.buf
		if e.ok != res.ok {
			return 0, fmt.Errorf("pair %d->%d: served ok=%v, fresh trace ok=%v", src, dst, e.ok, res.ok)
		}
		if !e.ok {
			continue
		}
		if e.base != res.base || e.hops != res.hops ||
			!slices.Equal(c.pathOf(&e), buf[res.off:res.off+res.n]) {
			return 0, fmt.Errorf("pair %d->%d: served path %v (base %d), fresh trace %v (base %d)",
				src, dst, c.pathOf(&e), e.base, buf[res.off:res.off+res.n], res.base)
		}
	}
	c.endBuild()
	return len(own), nil
}

// CheckFlowReplays arms a check on every segment a later solve replays
// from its fault state's record: right after the restore, demands() is
// served from the route cache, the record's flow table voided, and solved
// afresh for the same fault state, exactly as a rebuilt segment is, and its
// flows (rate, throttle, cache entry), element loads, per-flow latencies and
// refused rate must equal the restored ones bit for bit, without a trace.
// The solver is then put back as the replay left it, so the solve goes on
// unperturbed: the lookups leave the record the table it held. report gets
// the outcome (nil on a match) once per replayed segment; a nil demands
// disarms the check.
func (n *Network) CheckFlowReplays(demands func() []FlowDemand, size int32, report func(error)) {
	fl := n.flowSolver()
	if demands == nil {
		fl.onReplay = nil
		return
	}
	fl.onReplay = func(rec *stateRecord, refused float64) {
		flows, load, lat := slices.Clone(fl.flows), slices.Clone(fl.load), slices.Clone(fl.lat)
		off, inc := slices.Clone(fl.elemOff), slices.Clone(fl.elemFlow)
		stats, tposeOf := fl.stats, fl.tposeOf
		rec.tabled = false
		fresh := n.solveSegment(fl, rec, demands(), size)
		fl.latencies()
		err := replayMismatch(fl, flows, load, lat, refused, fresh, stats.Traces)
		fl.flows = append(fl.flows[:0], flows...)
		copy(fl.load, load)
		fl.lat = append(fl.lat[:0], lat...)
		copy(fl.elemOff, off)
		fl.elemFlow = append(fl.elemFlow[:0], inc...)
		fl.stats, fl.tposeOf = stats, tposeOf
		report(err)
	}
}

// replayMismatch compares a fresh solve, in fl, with the replayed flows,
// loads, latencies and refused rate, bit for bit; traces is the trace count
// before the fresh solve.
func replayMismatch(fl *flowSolver, flows []flowFlow, load, lat []float64, refused, fresh float64, traces int64) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if d := fl.stats.Traces - traces; d != 0 {
		return fmt.Errorf("a fresh solve of the replayed state traced %d pairs", d)
	}
	if !same(refused, fresh) {
		return fmt.Errorf("replayed refused rate %v, fresh %v", refused, fresh)
	}
	if len(flows) != len(fl.flows) {
		return fmt.Errorf("replayed %d flows, fresh solve %d", len(flows), len(fl.flows))
	}
	for i, f := range flows {
		g := fl.flows[i]
		if !same(f.rate, g.rate) || !same(f.x, g.x) || f.entry != g.entry {
			return fmt.Errorf("flow %d: replayed %+v, fresh %+v", i, f, g)
		}
	}
	for el := range load {
		if !same(load[el], fl.load[el]) {
			return fmt.Errorf("element %d: replayed load %v, fresh %v", el, load[el], fl.load[el])
		}
	}
	if len(lat) != len(fl.lat) {
		return fmt.Errorf("replayed %d latencies, fresh solve %d", len(lat), len(fl.lat))
	}
	for i := range lat {
		if !same(lat[i], fl.lat[i]) {
			return fmt.Errorf("flow %d: replayed latency %v, fresh %v", i, lat[i], fl.lat[i])
		}
	}
	return nil
}

// FlowTraceEntries returns the route-trace cache's entry count, split into
// reference-layer entries and state-owned overlay entries.
func (n *Network) FlowTraceEntries() (reference, overlays int) {
	if n.flow == nil {
		return 0, 0
	}
	c := n.flow.cache
	return len(c.entries) - c.overlays, c.overlays
}

// FaultStates returns the number of distinct fault states the installed
// fault-state routing has entered, and how many hold a built routing.
func (n *Network) FaultStates() (states, built int) {
	if n.faultRoute == nil {
		return 0, 0
	}
	for _, s := range n.faultRoute.states {
		if s.route != nil {
			built++
		}
	}
	return len(n.faultRoute.states), built
}

// FlowProbe drives one flow-solve segment's waterfill round by round and
// exposes the solver state between rounds, for oracle tests.
type FlowProbe struct{ fl *flowSolver }

// PrepareFlowSegment serves demands and builds the flow-incidence transpose
// exactly as a solve segment does before its waterfill, with every flow at
// its offered rate.
func (n *Network) PrepareFlowSegment(demands []FlowDemand, size int32) FlowProbe {
	fl := n.flowSolver()
	if err := n.setFlowSize(fl, size); err != nil {
		panic(err)
	}
	if n.preAllocate != nil {
		n.preAllocate(n)
	}
	rec := fl.record()
	n.flowBuildFlows(fl, rec, demands, size)
	fl.buildTranspose()
	fl.tposeOf = rec
	return FlowProbe{fl}
}

// Paths returns every flow's path elements, in flow and path order.
func (p FlowProbe) Paths() [][]int32 {
	c := p.fl.cache
	out := make([][]int32, len(p.fl.flows))
	for i := range p.fl.flows {
		out[i] = slices.Clone(c.pathOf(&c.entries[p.fl.flows[i].entry]))
	}
	return out
}

// Rates returns every flow's offered rate.
func (p FlowProbe) Rates() []float64 {
	out := make([]float64, len(p.fl.flows))
	for i := range p.fl.flows {
		out[i] = p.fl.flows[i].rate
	}
	return out
}

// Bases returns every flow's uncontended latency.
func (p FlowProbe) Bases() []int64 {
	out := make([]int64, len(p.fl.flows))
	for i := range p.fl.flows {
		out[i] = int64(p.fl.cache.entries[p.fl.flows[i].entry].base)
	}
	return out
}

// Throttles returns every flow's current throttle.
func (p FlowProbe) Throttles() []float64 {
	out := make([]float64, len(p.fl.flows))
	for i := range p.fl.flows {
		out[i] = p.fl.flows[i].x
	}
	return out
}

// Capacities and ServiceTimes return the per-element capacities and
// serialization cycles; Loads the current per-element loads.
func (p FlowProbe) Capacities() []float64 {
	out := make([]float64, len(p.fl.elemKind))
	for el := range out {
		out[el] = p.fl.capOf(int32(el))
	}
	return out
}
func (p FlowProbe) ServiceTimes() []float64 {
	out := make([]float64, len(p.fl.elemKind))
	for el, k := range p.fl.elemKind {
		out[el] = p.fl.kinds[k].ser
	}
	return out
}
func (p FlowProbe) Loads() []float64 { return slices.Clone(p.fl.load) }

// Transpose returns the flow-incidence transpose: element el's incident
// flows are flows[off[el]:off[el+1]].
func (p FlowProbe) Transpose() (off, flows []int32) {
	return slices.Clone(p.fl.elemOff), slices.Clone(p.fl.elemFlow)
}

// OverElems returns the solver's over-capacity element set.
func (p FlowProbe) OverElems() []int32 { return slices.Clone(p.fl.overElems) }

// Start runs the waterfill's initial load pass; Round runs one throttle
// round and reports whether it refreshed loads with the whole-network pass.
// The solver's waterfill runs Round while OverElems is non-empty, at most
// WaterfillRounds times.
func (p FlowProbe) Start()               { p.fl.waterfillStart() }
func (p FlowProbe) Round() (full bool)   { return p.fl.waterfillRound() }
func (p FlowProbe) Latencies() []float64 { p.fl.latencies(); return slices.Clone(p.fl.lat) }

// WaterfillRounds is the waterfill's round bound; FlowRhoCap caps the
// utilization in the queueing term.
const (
	WaterfillRounds = flowWaterfillIters
	FlowRhoCap      = flowRhoCap
)

// SetFlowWorkers sets the flow solver's parallelism outside a solve, for
// tests that drive solver phases directly.
func (n *Network) SetFlowWorkers(w int) { n.setFlowWorkers(w) }

// FlowWorkers reports the flow solver's parallelism and whether it holds a
// worker pool.
func (n *Network) FlowWorkers() (workers int, pooled bool) {
	fl := n.flowSolver()
	return fl.workers, fl.pool != nil
}

// FlowElemKinds readies the flow solver for packet size and returns what it
// reads of every element through the element's kind: width, wire delay and
// hop class, indexed like the solver's elements (links, then one ejection
// element per router).
func (n *Network) FlowElemKinds(size int32) (width, delay []int32, class []HopClass, err error) {
	fl := n.flowSolver()
	if err := n.setFlowSize(fl, size); err != nil {
		return nil, nil, nil, err
	}
	for _, k := range fl.elemKind {
		width = append(width, fl.kinds[k].width)
		delay = append(delay, fl.kinds[k].delay)
		class = append(class, fl.kinds[k].class)
	}
	return width, delay, class, nil
}

// AgeTraceEpoch renumbers the trace cache's current epoch to e, on every
// entry and fault-state record valid in it too, then sets the epoch
// counter to next without touching them: a cache that traced in epoch e
// and then invalidated until its counter read next, reading nothing in
// between.
func (n *Network) AgeTraceEpoch(e, next uint32) {
	fl := n.flowSolver()
	c := fl.cache
	for i := range c.entries {
		if c.entries[i].epoch == c.epoch {
			c.entries[i].epoch = e
		}
	}
	for i := range fl.records {
		if fl.records[i].epoch == c.epoch {
			fl.records[i].epoch = e
		}
	}
	c.epoch = next
}

// ForceLoadPass sends every later waterfill round down the whole-network
// load pass (pass > 0) or the dirty-element refresh (pass < 0); 0 restores
// the solver's own choice.
func (n *Network) ForceLoadPass(pass int) {
	n.flowSolver().passHook = int8(max(-1, min(pass, 1)))
}

// CycleStateBuilt reports whether the cycle engines' state, the router
// random streams among it, exists.
func (n *Network) CycleStateBuilt() bool { return n.cyc != nil }
