package netsim

import (
	"fmt"
	"slices"
)

// CheckServedPaths serves demands for the network's current fault state
// exactly as a solve segment does, then checks every served route against
// a fresh trace under fresh: the same success, base latency, hop mix and
// path. differing counts the distinct pairs served from the state's own
// entries rather than the reference layer.
func (n *Network) CheckServedPaths(demands []FlowDemand, size int32, fresh RouteFunc) (differing int, err error) {
	fl := n.flowSolver()
	n.flowBuildFlows(fl, demands, size)
	installed := n.route
	n.route = fresh
	defer func() { n.route = installed }()
	c := fl.cache
	seq := make([]int, len(n.ChipNodes))
	own := map[uint64]bool{}
	var ts traceScratch
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
		if ei != c.idx[key] {
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
	if fl.cache.size != size {
		n.flowInvalidateAll()
		fl.cache.size = size
	}
	if fl.capSize != size {
		if err := fl.setCapacities(n, size); err != nil {
			panic(err)
		}
	}
	if n.preAllocate != nil {
		n.preAllocate(n)
	}
	n.flowBuildFlows(fl, demands, size)
	fl.buildTranspose()
	fl.shape = fl.flowShape()
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
		out[i] = p.fl.cache.entries[p.fl.flows[i].entry].base
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
	out := make([]float64, len(p.fl.elemClass))
	for el := range out {
		out[el] = p.fl.capOf(int32(el))
	}
	return out
}
func (p FlowProbe) ServiceTimes() []float64 {
	out := make([]float64, len(p.fl.elemClass))
	for el, c := range p.fl.elemClass {
		out[el] = p.fl.classSer[c]
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
