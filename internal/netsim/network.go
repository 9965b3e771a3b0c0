package netsim

import (
	"errors"
	"fmt"

	"sldf/internal/engine"
)

// RouteFunc computes the output port and next virtual channel for packet p
// at router r. The cycle engines call it once per (packet, router): when p
// reaches the head of an input VC or, on an ideal switch, when p enters the
// lookahead window behind the head. The decision is cached until p departs.
// A route must be a function of the router, the packet, the RNG stream it
// draws from (Packet.RouteRNG) and the fault state, never of queue or
// credit occupancy: the flow engine traces each pair once on an empty
// network and reuses the trace from its cache. A churn batch discards
// every cached decision and re-routes queued packets with the new fault
// state's function.
type RouteFunc func(net *Network, r *Router, p *Packet) (out int, vc uint8)

// ErrDeadlock is returned by Run when the network stops making progress
// while packets are still in flight.
var ErrDeadlock = errors.New("netsim: no progress with packets in flight (routing deadlock?)")

// DefaultWatchdogCycles is the progress-watchdog threshold used when
// NetworkOptions.WatchdogCycles is zero: after this many consecutive
// zero-progress cycles with packets in flight, Run returns ErrDeadlock
// (and the trip is counted in Stats.WatchdogTrips).
const DefaultWatchdogCycles = 10000

// Network is a complete simulated interconnection network.
//
// Hot state lives in flat, index-addressed storage: Routers and Links are
// pointer-free value slices (one allocation each, walked contiguously by
// the engines) holding only topology, what routing and the flow solver
// read, and every router's ports are a window of two network-wide slabs;
// every live packet resides in the network-owned arena and is referenced
// by PacketRef from VC rings and link pipelines; the queues, credits,
// pipelines and random streams themselves live in per-router and per-link
// cycle records built when a cycle engine first needs them (cycleState).
type Network struct {
	Routers []Router
	// Links holds the network's channels contiguously, indexed by link ID:
	// OutPort.Link and the in-link slab hold indices into it. The pointers
	// linkCycle and LinkUtil hold point into it and stay valid because it
	// is never resized after Finalize.
	Links []Link
	// specs is the table Link.Spec indexes: each distinct LinkSpec the
	// builder connected a link with, in first-use order.
	specs []LinkSpec

	// outPorts and inLinks hold every router's output ports and the link
	// ID feeding each of its input ports (-1 on the injection pseudo-port),
	// router after router; see OutPorts and InLinks.
	outPorts []OutPort
	inLinks  []int32

	// ChipNodes[c] lists the injection-capable router IDs of chip c, in
	// deterministic (ascending router ID) order.
	ChipNodes [][]NodeID

	Cycle int64

	route      RouteFunc
	gen        Generator
	genBern    BernoulliGenerator // non-nil when gen supports the inlined coin flip
	packetSize int32
	seed       uint64

	arena packetArena

	// utilScratch is the reusable top-k buffer returned by LinkUtilization.
	utilScratch []LinkUtil

	pool   *engine.Pool
	shards int
	shard  []shardStats

	// cyc is the state only the cycle engines read; nil on a flow-only
	// network (see cycleState).
	cyc *cycleState

	// engineKind selects the engine: active-set, full-scan reference or
	// flow.
	engineKind EngineKind

	// Persistent phase closures (reading n.Cycle for the current time), so
	// Step allocates nothing; built once by initPhases.
	drainActiveFn, drainRefFn func(s int)
	allocActiveFn, allocRefFn func(s int)

	measuring     bool
	measStart     int64
	measEnd       int64
	idleCycles    int64 // consecutive cycles with no packet movement
	watchdogLimit int64
	watchdogTrips int64 // times the progress watchdog fired since reset

	// churn is the armed fault timeline (nil on static networks — the nil
	// check is Step's only churn cost, preserving bitwise identity with
	// pre-churn builds).
	churn *churnState
	// faults is the component-fault bookkeeping shared by build-time
	// faults and the churn timeline; nil until the first ApplyFaults or
	// ScheduleChurn.
	faults *faultBook

	// faultRoute is the installed fault-state routing (SetRoute or
	// SetFaultRouting); nil until routing is installed.
	faultRoute *faultRouting

	// flow is the lazily created flow-solver state (route-trace cache and
	// retained solve buffers); nil until the first flow solve. It survives
	// Reset so build-once/measure-many sweeps re-trace nothing.
	flow *flowSolver
}

// NetworkOptions configure simulation execution.
type NetworkOptions struct {
	// Seed is the master seed; every router and injector derives its own
	// deterministic stream from it.
	Seed uint64
	// Workers is the number of parallel workers (0 = GOMAXPROCS).
	Workers int
	// WatchdogCycles is the number of consecutive zero-progress cycles with
	// in-flight packets after which Run returns ErrDeadlock and increments
	// Stats.WatchdogTrips (0 selects DefaultWatchdogCycles).
	WatchdogCycles int64
}

// SetTraffic installs the traffic generator. packetSize is the packet length
// in flits (paper Table IV default is 4); policy names the receiving node of
// the destination chip, and DstSameIndex is the only policy.
func (n *Network) SetTraffic(gen Generator, packetSize int32, _ DstNodePolicy) {
	n.gen = gen
	n.genBern, _ = gen.(BernoulliGenerator)
	n.packetSize = packetSize
}

// SetRoute installs a fixed routing function as fault-state routing (see
// SetFaultRouting) whose builder ignores the state: every fault state
// routes with f and no churn batch sanitizes in-flight packets, while the
// flow solver still keys its route traces by fault state. Unlike
// SetFaultRouting it may be called at any time. Every cached route trace
// is discarded: a new RouteFunc can route every pair differently, and a
// stale path must never survive a reroute.
func (n *Network) SetRoute(f RouteFunc) {
	n.installRouting(func() (RouteFunc, func(*Router, *Packet) bool, error) { return f, nil, nil }, f, nil)
}

// NumChips returns the number of terminal chips.
func (n *Network) NumChips() int { return len(n.ChipNodes) }

// Router returns the router with the given ID.
func (n *Network) Router(id NodeID) *Router { return &n.Routers[id] }

// LinkSpec returns the physical and flow-control properties of link id.
func (n *Network) LinkSpec(id int32) LinkSpec { return n.specs[n.Links[id].Spec] }

// OutPorts returns r's output ports, indexed by port number. The slice is
// a window of the network-wide port slab: reading it allocates nothing.
func (n *Network) OutPorts(r *Router) []OutPort {
	lo, hi := r.outOff, r.outOff+int32(r.nOut)
	return n.outPorts[lo:hi:hi]
}

// InLinks returns the ID of the link feeding each of r's input ports,
// indexed by port number, with -1 on the injection pseudo-port. The slice
// is a window of the network-wide in-link slab.
func (n *Network) InLinks(r *Router) []int32 {
	lo, hi := r.inOff, r.inOff+int32(r.nIn)
	return n.inLinks[lo:hi:hi]
}

// StartMeasurement opens the measurement window at the current cycle.
func (n *Network) StartMeasurement() {
	n.measuring = true
	n.measStart = n.Cycle
	n.measEnd = 1 << 62
}

// StopMeasurement closes the measurement window at the current cycle.
func (n *Network) StopMeasurement() {
	n.measEnd = n.Cycle
	n.measuring = false
}

func (n *Network) inWindow(cycle int64) bool {
	return cycle >= n.measStart && cycle < n.measEnd
}

// deliver records an ejected packet and recycles its arena slot; called
// from router allocation on the given shard.
func (n *Network) deliver(shard int, ref PacketRef, p *Packet) {
	ss := &n.shard[shard]
	ss.deliveredPkts++
	if n.measStart != 0 || n.measuring || n.measEnd != 0 {
		if n.inWindow(p.DeliveredAt) {
			ss.winFlits += int64(p.Size)
		}
		if p.CreatedAt >= n.measStart && p.CreatedAt < n.measEnd {
			ss.winPkts++
			lat := p.DeliveredAt - p.CreatedAt
			ss.lat.Add(lat)
			ss.winNetLatSum += p.DeliveredAt - p.InjectedAt
			for c := 0; c < int(NumHopClasses); c++ {
				ss.winHops[c] += int64(p.Hops[c])
			}
		}
	}
	ss.free = append(ss.free, ref)
}

// generate creates this cycle's new packets for every injection node of the
// shard. act is the shard's active set (nil under the reference engine);
// both engines visit the same injectors in the same ascending-ID order, so
// packet sequence numbers and RNG draws are identical. Bernoulli-style
// generators get their coin flip inlined (the dominant per-cycle generator
// cost); the dynamic Dest call is paid only for winning flips.
func (n *Network) generate(shard int, now int64, act *shardActive) {
	if n.gen == nil {
		return
	}
	rngs := n.cyc.rng
	if g := n.genBern; g != nil {
		prob, thresh := g.InjectionRate()
		if prob <= 0 {
			return
		}
		always := prob >= 1
		for _, id := range n.cyc.injectors[shard] {
			r, rng := &n.Routers[id], &rngs[id]
			if !always && !rng.Hit(thresh) {
				continue
			}
			if dst := g.Dest(now, r.Chip, int(r.Local), rng); dst >= 0 {
				n.admit(shard, r, dst, now, act)
			}
		}
		return
	}
	for _, id := range n.cyc.injectors[shard] {
		r := &n.Routers[id]
		if dst := n.gen.NextDest(now, r.Chip, int(r.Local), &rngs[id]); dst >= 0 {
			n.admit(shard, r, dst, now, act)
		}
	}
}

// admit queues one new packet from r's terminal toward chip dst.
func (n *Network) admit(shard int, r *Router, dst int32, now int64, act *shardActive) {
	ss := &n.shard[shard]
	if len(n.ChipNodes[dst]) == 0 {
		// Churn killed the destination chip's last terminal under a
		// generator that still targets it: refuse the packet at the source.
		// Never reached on static networks (dead chips are filtered out of
		// traffic patterns at build time).
		ss.refusedPkts++
		return
	}
	ref, p := n.allocPacket(shard)
	ss.pktSeq++
	p.ID = uint64(shard)<<48 | ss.pktSeq
	p.Aux, p.Aux2 = -1, -1
	p.SrcChip = r.Chip
	p.DstChip = dst
	p.SrcNode = r.ID
	// DstSameIndex: the destination chip's node paired with r by local index.
	dstNodes := n.ChipNodes[dst]
	p.DstNode = dstNodes[int(r.Local)%len(dstNodes)]
	p.Size = n.packetSize
	p.CreatedAt = now
	ss.injectedPkts++
	if n.measuring {
		ss.winCreated++
	}
	if n.cyc.routers[r.ID].enqueue(int(r.InjIn), 0, ref, p.Size) && act != nil {
		act.routers.Add(int(r.ID) - act.lo)
	}
}

// drainDataLink delivers every deliverable packet of l into its
// destination router's VC buffers, maintaining the occupancy bookkeeping.
// Shared by both cycle engines so their per-event semantics cannot
// diverge; act is the destination shard's active set (nil under the
// reference engine).
func (n *Network) drainDataLink(l *linkCycle, now int64, act *shardActive) {
	rc := &n.cyc.routers[l.Dst]
	for {
		ref, ok := l.data.popReady(now)
		if !ok {
			break
		}
		p := n.arena.at(ref)
		if rc.enqueue(int(l.DstPort), int(p.VC), ref, p.Size) && act != nil {
			act.routers.Add(int(l.Dst) - act.lo)
		}
	}
}

// drainCreditLink returns every arrived credit of l to its source router's
// output port, reporting whether the credits woke the router (see
// routerCycle.creditReturned). Shared by both cycle engines.
func (n *Network) drainCreditLink(l *linkCycle, now int64) bool {
	src := &n.cyc.routers[l.Src]
	op := &src.out[l.SrcPort]
	drained := false
	for {
		c, ok := l.credit.popReady(now)
		if !ok {
			break
		}
		op.credits[c.vc] += c.flits
		drained = true
	}
	return drained && src.creditReturned(int(l.SrcPort))
}

// drainShard delivers arrived packets and returned credits for shard s:
// data to the destination routers' VC buffers, credits to the source
// routers' output ports. Each link queue has exactly one consumer shard.
func (n *Network) drainShard(s int, now int64) {
	for _, l := range n.cyc.dataLinks[s] {
		if l.data.n != 0 {
			n.drainDataLink(l, now, nil)
		}
	}
	for _, l := range n.cyc.creditLinks[s] {
		if l.credit.n != 0 {
			n.drainCreditLink(l, now)
		}
	}
}

// initPhases builds the persistent per-phase closures once, so Step itself
// allocates nothing. The closures read n.Cycle for the current time: it is
// only advanced between phases, and the pool barrier publishes it to the
// worker goroutines.
func (n *Network) initPhases() {
	//sldf:hotpath
	n.drainActiveFn = func(s int) {
		n.mergeActivations(s)
		n.drainShardActive(s, n.Cycle)
	}
	//sldf:hotpath
	n.drainRefFn = func(s int) {
		n.drainShard(s, n.Cycle)
	}
	//sldf:hotpath
	n.allocActiveFn = func(s int) {
		n.allocShardActive(s, n.Cycle)
	}
	//sldf:hotpath
	n.allocRefFn = func(s int) {
		now := n.Cycle
		lo, hi := engine.ShardBounds(len(n.Routers), n.shards, s)
		n.generate(s, now, nil)
		moved := 0
		routers := n.cyc.routers
		for id := lo; id < hi; id++ {
			moved += routers[id].allocate(n, &n.Routers[id], now, s, nil)
		}
		n.shard[s].moved = int64(moved)
	}
}

// Step advances the simulation by one cycle: a drain phase delivering link
// traffic and an allocate phase moving packets. The active-set engine runs
// both phases over per-shard worklists; the reference engine walks every
// link and router.
//
//sldf:hotpath
func (n *Network) Step() {
	if n.cyc == nil {
		n.ensureCycleState()
	}
	if n.churn != nil {
		n.applyDueChurn()
	}
	drain, alloc := n.drainActiveFn, n.allocActiveFn
	if n.engineKind != EngineActiveSet {
		drain, alloc = n.drainRefFn, n.allocRefFn
	}
	n.pool.Run(n.shards, drain)
	n.pool.Run(n.shards, alloc)
	var moved int64
	for s := range n.shard {
		moved += n.shard[s].moved
	}
	if moved == 0 && n.InFlight() > 0 {
		n.idleCycles++
	} else {
		n.idleCycles = 0
	}
	n.Cycle++
}

// Run advances the simulation by `cycles` cycles, returning ErrDeadlock if
// the progress watchdog trips.
func (n *Network) Run(cycles int64) error {
	for i := int64(0); i < cycles; i++ {
		if err := n.checkedStep(); err != nil {
			return err
		}
	}
	return nil
}

// checkedStep advances one cycle and reports what must stop a run loop: a
// failed churn event, or a progress-watchdog trip (wrapping ErrDeadlock;
// the trip is counted and the watchdog re-armed).
func (n *Network) checkedStep() error {
	n.Step()
	if err := n.ChurnErr(); err != nil {
		return err
	}
	if n.idleCycles >= n.watchdogLimit {
		n.watchdogTrips++
		n.idleCycles = 0
		return fmt.Errorf("%w: cycle %d, %d packets in flight",
			ErrDeadlock, n.Cycle, n.InFlight())
	}
	return nil
}

// ErrCycleLimit is returned (wrapped) by RunUntil when the predicate is
// still false after maxCycles cycles.
var ErrCycleLimit = errors.New("netsim: cycle limit reached before completion")

// RunUntil advances the simulation one cycle at a time until done reports
// true, and returns the exact number of cycles advanced. The predicate is
// evaluated before the first step (an already-satisfied condition runs zero
// cycles) and again after every Step, so completion is detected at its
// precise cycle — unlike polling between fixed-size Run batches, which
// quantizes the observed completion up to the batch length. Both cycle
// engines are served by the same path (Step dispatches internally), so a
// makespan measured under the active-set engine is bitwise identical to the
// full-scan reference.
//
// If the predicate is still false after maxCycles cycles, RunUntil returns
// maxCycles and an error wrapping ErrCycleLimit; if the progress watchdog
// trips first it returns the cycles run and ErrDeadlock, exactly as Run
// does. This is the primitive behind step-barriered collective execution
// (internal/collective) and fixed-volume makespan measurements.
func (n *Network) RunUntil(done func(*Network) bool, maxCycles int64) (int64, error) {
	for ran := int64(0); ; ran++ {
		if done(n) {
			return ran, nil
		}
		if ran >= maxCycles {
			return ran, fmt.Errorf("%w: predicate still false after %d cycles (%d packets in flight)",
				ErrCycleLimit, maxCycles, n.InFlight())
		}
		if err := n.checkedStep(); err != nil {
			return ran + 1, err
		}
	}
}

// Drain runs with traffic generation disabled until all in-flight packets
// are delivered or maxCycles elapse. It returns the number of cycles run.
func (n *Network) Drain(maxCycles int64) (int64, error) {
	savedGen := n.gen
	n.gen = nil
	defer func() { n.gen = savedGen }()
	for i := int64(0); i < maxCycles; i++ {
		if n.InFlight() == 0 {
			return i, nil
		}
		if err := n.checkedStep(); err != nil {
			return i, err
		}
	}
	if n.InFlight() > 0 {
		return maxCycles, fmt.Errorf("netsim: drain incomplete after %d cycles, %d in flight",
			maxCycles, n.InFlight())
	}
	return maxCycles, nil
}

// InFlight returns the number of packets injected but not yet delivered or
// dropped by churn.
func (n *Network) InFlight() int64 {
	var inj, done int64
	for s := range n.shard {
		inj += n.shard[s].injectedPkts
		done += n.shard[s].deliveredPkts + n.shard[s].droppedPkts
	}
	return inj - done
}

// WindowSettled reports whether running on can no longer change any
// statistic of the closed measurement window: every packet a cycle engine
// created inside it has been delivered, and no churn timeline is armed
// (its dropped, retried and refused counts keep growing with post-window
// traffic, and a dropped window packet is never delivered). From then on
// only the all-time InjectedPkts, DeliveredPkts and InFlightPkts counters
// move. The counts are merged across shards, so both cycle engines and
// every worker count settle on the same cycle.
func (n *Network) WindowSettled() bool {
	if n.measuring || n.churn != nil {
		return false
	}
	var created, delivered int64
	for s := range n.shard {
		created += n.shard[s].winCreated
		delivered += n.shard[s].winPkts
	}
	return created == delivered
}

// Snapshot merges per-shard counters into a Stats value. Cycles is the
// measurement window length observed so far.
func (n *Network) Snapshot() Stats {
	var st Stats
	end := n.measEnd
	if n.measuring || end > n.Cycle {
		end = n.Cycle
	}
	st.Cycles = end - n.measStart
	st.Chips = len(n.ChipNodes)
	st.WatchdogTrips = n.watchdogTrips
	for s := range n.shard {
		ss := &n.shard[s]
		st.InjectedPkts += ss.injectedPkts
		st.DeliveredPkts += ss.deliveredPkts
		st.DroppedPkts += ss.droppedPkts
		st.RetriedPkts += ss.retriedPkts
		st.RefusedPkts += ss.refusedPkts
		st.WindowFlits += ss.winFlits
		st.WindowPkts += ss.winPkts
		st.NetLatencySum += ss.winNetLatSum
		for c := 0; c < int(NumHopClasses); c++ {
			st.Hops[c] += ss.winHops[c]
		}
		st.Latency.Merge(&ss.lat)
	}
	st.InFlightPkts = st.InjectedPkts - st.DeliveredPkts - st.DroppedPkts
	return st
}

// Close releases the network's worker pool, along with the flow solver's
// pool when one was created.
func (n *Network) Close() {
	n.pool.Close()
	if n.flow != nil && n.flow.pool != nil {
		n.flow.pool.Close()
		n.flow.pool = nil
	}
}
