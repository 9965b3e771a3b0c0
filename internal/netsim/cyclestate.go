package netsim

import "sldf/internal/engine"

// cycleState is everything only the cycle engines read. Network.cyc stays
// nil until the first Step or SetEngine to a cycle engine builds it
// (ensureCycleState), so a flow-only network holds just what routing and the
// flow solver read. It holds:
//
//   - routers: one routerCycle per router, indexed by router ID — its VC
//     queues and ring windows, output credits, port busy times, round-robin
//     pointers, occupancy masks, sleep and wake bookkeeping, request lists
//     and an ideal switch's lookahead scratch;
//   - links: one linkCycle per link, indexed by link ID — its packet and
//     credit pipelines, window flit count, endpoint shards and worklist
//     membership;
//   - rng: one random stream per router, indexed by router ID, for
//     injection and routing choices (see Packet.RouteRNG);
//   - dataLinks/creditLinks: the reference engine's per-shard drain lists;
//   - injectors: the per-shard injection walk;
//   - active: the active-set engine's per-shard bitmaps, timing wheels and
//     staging lists.
//
// The code that may run first — Reset, fault application, churn batches,
// FreeCredits — treats a nil cycleState as an idle network. The state is
// derived from the current fault set, so it equals what Finalize followed
// by the same faults and churn batches would have left on an idle network.
type cycleState struct {
	routers []routerCycle
	links   []linkCycle
	rng     []engine.RNG

	// dataLinks[s] lists links whose destination router is in shard s;
	// creditLinks[s] lists links whose source router is in shard s. The
	// reference engine's phase A iterates these flat lists instead of
	// walking every router's ports.
	dataLinks   [][]*linkCycle
	creditLinks [][]*linkCycle
	// injectors[s] lists the shard's alive injection-capable routers.
	injectors [][]NodeID
	active    []shardActive
}

// routerCycle is one router's cycle-engine record: the allocate pass fetches
// it once and finds every port's queues and credits in it.
type routerCycle struct {
	in  []inPortCycle
	out []outPortCycle

	// active counts non-empty (input port, VC) queues; allocation is
	// skipped entirely while it is zero.
	active int32
	// wide marks a router with more than 64 input or output ports, which
	// falls back to full port scans instead of the bitmask fast paths.
	wide bool
	// eventWait reports that the last allocation pass left requests
	// blocked on credits or a dead link at an output that granted nothing:
	// blockers with no known unblock cycle.
	eventWait bool
	// stale reports that a churn batch invalidated the cached routing
	// decisions of a router still holding packets. Until its next pass has
	// re-routed them, any arrival, credit or injection wakes it.
	stale bool

	// occPorts has bit i set iff in[i].occMask != 0, so allocation visits
	// only occupied ports. Maintained alongside occMask; meaningless (and
	// unused) when wide is set.
	occPorts uint64
	// creditWait has bit o set when the last pass left a request blocked
	// on output o's credits (or its dead link): a credit returned there
	// wakes the router. Unused when wide is set (every credit wakes).
	creditWait uint64
	// nextAlloc is the earliest cycle at which an allocation pass could
	// change anything. A pass whose grants left no queue with a new head
	// sleeps until its earliest serialization wake-up (allocNever when
	// every blocker waits on an event); the events that can unblock it —
	// an arrival or injection creating a request, a credit to a blocked
	// output, a link revival, a churn batch — reset it to zero.
	nextAlloc int64
	// movedBy is now+1 of the last pass that moved a packet (0: none).
	// A churn batch wakes a router that moved in the cycle before it.
	movedBy int64

	// requests is scratch space for the per-cycle allocation pass:
	// requests[out] lists candidate (inPort, vc, queueIndex) keys. Allocated
	// on the router's first pass.
	requests [][]int32
	// ideal is an ideal switch's allocation scratch; nil exactly on
	// ordinary routers (Router.Ideal unset).
	ideal *idealState
}

// inPortCycle is an input port's cycle state: its VC buffers (a single
// unbounded queue on the injection pseudo-port) and its feeding link's
// pipelines (nil on the injection pseudo-port).
type inPortCycle struct {
	vcs       []vcQueue
	busyUntil int64 // input crossbar bandwidth constraint
	link      *linkCycle
	// occMask has bit v set iff vcs[v] is non-empty; kept by the router's
	// own shard so allocation can skip empty ports without scanning.
	occMask uint8
}

// outPortCycle is an output port's cycle state: per-downstream-VC credits
// and the link it feeds (both nil on the ejection pseudo-port, which has no
// credit limit).
type outPortCycle struct {
	credits   []int32
	busyUntil int64
	link      *linkCycle
	// rr is the round-robin pointer for switch allocation on this output.
	rr uint32
}

// linkCycle is a link's cycle state. The data queue carries packets
// src→dst; the credit queue carries buffer credits dst→src (both with the
// link's delay). The embedded Link gives the cycle engines its topology
// fields.
type linkCycle struct {
	*Link

	data   packetFIFO
	credit creditFIFO

	// winFlits counts flits launched onto the link during the measurement
	// window (written only by the source router's shard).
	winFlits int64

	// srcShard/dstShard are the shards owning the endpoint routers.
	// The data queue is produced by srcShard (allocate) and consumed by
	// dstShard (drain); the credit queue is produced by dstShard and
	// consumed by srcShard.
	srcShard int32
	dstShard int32
	// dataActive/creditActive report membership in the consumer shard's
	// active-link worklist. Each flag is set by the producer shard during
	// the allocate phase and cleared by the consumer shard during the drain
	// phase; the inter-phase barrier makes that safe without atomics.
	dataActive   bool
	creditActive bool
}

// ensureCycleState builds the cycle state (see cycleState) on the first
// Step or SetEngine to a cycle engine. Both run it serially, before any
// parallel phase reads the state; the route functions' draws in
// particular never create it.
func (n *Network) ensureCycleState() {
	if n.cyc != nil {
		return
	}
	cs := &cycleState{
		routers: make([]routerCycle, len(n.Routers)),
		links:   make([]linkCycle, len(n.Links)),
		rng:     make([]engine.RNG, len(n.Routers)),
	}
	n.cyc = cs
	cs.deriveStreams(n.seed)
	for i := range n.Links {
		l := &n.Links[i]
		cs.links[i] = linkCycle{
			Link:     l,
			srcShard: int32(n.shardOfRouter(l.Src)),
			dstShard: int32(n.shardOfRouter(l.Dst)),
		}
	}
	// Carve every router's port records from two network-wide slabs, and
	// pack each router's hot port state contiguously: all VC queues in one
	// slab, all credit counters in another, and every network VC's initial
	// ring window carved from a shared ref array. A queue that outgrows its
	// window migrates to a private ring (vcQueue.grow); the injection
	// pseudo-queue starts with no window at all since its depth is
	// load-dependent and unbounded.
	allIn := make([]inPortCycle, len(n.inLinks))
	allOut := make([]outPortCycle, len(n.outPorts))
	for i := range n.Routers {
		r := &n.Routers[i]
		rc := &cs.routers[i]
		inLinks, outPorts := n.InLinks(r), n.OutPorts(r)
		rc.in, allIn = allIn[:len(inLinks):len(inLinks)], allIn[len(inLinks):]
		rc.out, allOut = allOut[:len(outPorts):len(outPorts)], allOut[len(outPorts):]
		// Routers beyond 64 ports fall back to full port scans; none of the
		// evaluated systems comes close.
		rc.wide = len(inLinks) > 64 || len(outPorts) > 64
		if r.Ideal {
			rc.ideal = &idealState{
				granted:   make([]int64, len(inLinks)<<3),
				lookahead: make([]routeDecision, len(inLinks)<<3*idealLookahead),
			}
		}
		nvc, netVCs, ncred := 0, 0, 0
		for _, l := range inLinks {
			if l >= 0 {
				nvc += int(n.Links[l].VCs)
				netVCs += int(n.Links[l].VCs)
			} else {
				nvc++ // injection pseudo-port: a single source queue
			}
		}
		for _, op := range outPorts {
			if op.Link >= 0 {
				ncred += int(n.Links[op.Link].VCs)
			}
		}
		vcs := make([]vcQueue, nvc)
		rings := make([]PacketRef, netVCs*vcRingWindow)
		creds := make([]int32, ncred)
		vi, ri, ci := 0, 0, 0
		for in, l := range inLinks {
			ip := &rc.in[in]
			if l < 0 {
				ip.vcs = vcs[vi : vi+1 : vi+1]
				vi++
				continue
			}
			ip.link = &cs.links[l]
			k := int(n.Links[l].VCs)
			ip.vcs = vcs[vi : vi+k : vi+k]
			vi += k
			for v := range ip.vcs {
				ip.vcs[v].buf = rings[ri : ri+vcRingWindow : ri+vcRingWindow]
				ri += vcRingWindow
			}
		}
		for o, port := range outPorts {
			if port.Link < 0 {
				continue
			}
			l := &n.Links[port.Link]
			op := &rc.out[o]
			op.link = &cs.links[l.ID]
			k := int(l.VCs)
			op.credits = creds[ci : ci+k : ci+k]
			ci += k
			for v := range op.credits {
				op.credits[v] = l.BufFlits
			}
		}
	}
	cs.dataLinks = make([][]*linkCycle, n.shards)
	cs.creditLinks = make([][]*linkCycle, n.shards)
	cs.injectors = make([][]NodeID, n.shards)
	n.rebuildShardLists()
	// Active-set scaffolding. The timing wheel must reach past the longest
	// link delay (+1 cycle of flit time, +1 so a wake never lands on the
	// slot being drained); the 64-slot floor gives sleeping routers room to
	// park typical serialization waits.
	maxDelay := int32(0)
	for i := range n.Links {
		maxDelay = max(maxDelay, n.Links[i].Delay)
	}
	wheelSize := 64
	for wheelSize < int(maxDelay)+2 {
		wheelSize *= 2
	}
	cs.active = make([]shardActive, n.shards)
	for s := range cs.active {
		lo, hi := engine.ShardBounds(len(n.Routers), n.shards, s)
		cs.active[s] = shardActive{
			lo:          lo,
			hi:          hi,
			routers:     engine.NewBitset(hi - lo),
			wheelMask:   int64(wheelSize - 1),
			wheelData:   make([][]*linkCycle, wheelSize),
			wheelCredit: make([][]*linkCycle, wheelSize),
			wheelRouter: make([][]NodeID, wheelSize),
			stageData:   make([][]*linkCycle, n.shards),
			stageCredit: make([][]*linkCycle, n.shards),
		}
	}
}

// deriveStreams gives every router its random stream, a pure function of
// the seed and the router ID.
func (cs *cycleState) deriveStreams(seed uint64) {
	for i := range cs.rng {
		cs.rng[i] = engine.NewRNGStream(seed, uint64(i))
	}
}

// reset empties every queue and pipeline, refills the credits, re-derives
// the random streams from the seed and returns every router's allocation
// state to idle; ring and list capacities are kept so a reset network
// reaches its steady state without re-growing them.
func (cs *cycleState) reset(seed uint64) {
	cs.deriveStreams(seed)
	for i := range cs.routers {
		rc := &cs.routers[i]
		rc.idle()
		for o := range rc.out {
			op := &rc.out[o]
			for vc := range op.credits {
				op.credits[vc] = op.link.BufFlits
			}
		}
	}
	for i := range cs.links {
		lc := &cs.links[i]
		lc.data.clear()
		lc.credit.clear()
		lc.winFlits = 0
		lc.dataActive = false
		lc.creditActive = false
	}
	for s := range cs.active {
		cs.active[s].clear()
	}
}

// FreeCredits returns the credits available on downstream VC vc of router
// id's output port out; the ejection pseudo-port has no credit limit.
// Before a cycle engine has built the credit counters the network is idle,
// so every downstream buffer is free.
func (n *Network) FreeCredits(id NodeID, out int, vc uint8) int32 {
	l := n.OutPorts(&n.Routers[id])[out].Link
	if l < 0 {
		return 1 << 30
	}
	if n.cyc == nil {
		return n.Links[l].BufFlits
	}
	return n.cyc.routers[id].out[out].credits[vc]
}
