package netsim

import "math/bits"

// RouterKind tags a router with its architectural role so routing functions
// can dispatch without topology-specific router types.
type RouterKind uint8

const (
	// KindCore is an on-chip NoC router that hosts a terminal (a core of a
	// chiplet in the switch-less Dragonfly, or a plain mesh node).
	KindCore RouterKind = iota
	// KindNIC is a terminal network interface in switch-based topologies:
	// one injection/ejection point with a single uplink.
	KindNIC
	// KindSwitch is a high-radix non-blocking switch.
	KindSwitch
	// KindPort is an SR-LR conversion module at the edge of a C-group: a
	// two-port pass-through node (paper Fig. 5/9).
	KindPort
)

// String returns a short name for the router kind.
func (k RouterKind) String() string {
	switch k {
	case KindCore:
		return "core"
	case KindNIC:
		return "nic"
	case KindSwitch:
		return "switch"
	case KindPort:
		return "port"
	}
	return "unknown"
}

// vcQueue is one virtual channel of an input port: a FIFO ring of packet
// refs (virtual cut-through moves whole packets) with a cached routing
// decision for the head packet. Network VCs start on a slice of the owning
// router's shared ring backing (see Network.ensureCycleState), so a
// router's queue state is contiguous in memory; a queue that outgrows its
// initial window — or the unbounded injection pseudo-queue, which starts
// empty — falls back to its own ring, doubling as needed and keeping the
// capacity forever.
type vcQueue struct {
	buf  []PacketRef
	head int32
	n    int32
	// occ is the flits currently occupied in this VC's buffer.
	occ int32
	// routed reports that route holds the head packet's routing decision.
	routed bool
	// ahead counts the cached routing decisions of the packets behind the
	// head (queue positions 1..ahead), kept in the owning ideal router's
	// lookahead table; always zero on ordinary routers.
	ahead uint8
	route routeDecision
}

// routeDecision is a cached routing decision for one queued packet, with
// the packet's size so allocation can check credits without loading it.
type routeDecision struct {
	size int32
	out  int16
	vc   uint8
}

//sldf:hotpath
func (v *vcQueue) empty() bool { return v.n == 0 }

func (v *vcQueue) size() int { return int(v.n) }

//sldf:hotpath
func (v *vcQueue) front() PacketRef { return v.buf[v.head] }

// at returns the i-th queued ref (0 = head).
//
//sldf:hotpath
func (v *vcQueue) at(i int) PacketRef {
	j := v.head + int32(i)
	if int(j) >= len(v.buf) {
		j -= int32(len(v.buf))
	}
	return v.buf[j]
}

// push appends a packet of the given flit size to the tail.
//
//sldf:hotpath
func (v *vcQueue) push(ref PacketRef, size int32) {
	if int(v.n) == len(v.buf) {
		v.grow()
	}
	j := v.head + v.n
	if int(j) >= len(v.buf) {
		j -= int32(len(v.buf))
	}
	v.buf[j] = ref
	v.n++
	v.occ += size
}

// grow moves the ring onto a private doubled buffer, unwrapping it. The
// old window (possibly shared router backing) is simply abandoned.
func (v *vcQueue) grow() {
	nc := 2 * len(v.buf)
	if nc < 8 {
		nc = 8
	}
	nb := make([]PacketRef, nc)
	for i := 0; i < int(v.n); i++ {
		nb[i] = v.at(i)
	}
	v.buf = nb
	v.head = 0
}

// pop removes and returns the head ref; size must be the head packet's
// flit count. la is the queue's lookahead decisions (nil when ahead is
// zero): the first one becomes the new head's decision and the rest move
// up one position, so every cached decision stays with its packet.
//
//sldf:hotpath
func (v *vcQueue) pop(size int32, la []routeDecision) PacketRef {
	ref := v.buf[v.head]
	v.head++
	if int(v.head) == len(v.buf) {
		v.head = 0
	}
	v.n--
	v.occ -= size
	v.routed = v.ahead > 0
	if v.routed {
		v.route = la[0]
		v.ahead--
		copy(la, la[1:v.ahead+1])
	}
	return ref
}

// removeAt removes and returns the i-th queued ref, preserving the order
// of the others and keeping the cached decisions (la, as for pop) aligned
// with their packets. Used by ideal (non-blocking) switches to bypass a
// blocked head-of-line packet.
//
//sldf:hotpath
func (v *vcQueue) removeAt(i int, size int32, la []routeDecision) PacketRef {
	if i == 0 {
		return v.pop(size, la)
	}
	ref := v.at(i)
	for k := i; k < int(v.n)-1; k++ {
		j := v.head + int32(k)
		if int(j) >= len(v.buf) {
			j -= int32(len(v.buf))
		}
		nj := j + 1
		if int(nj) >= len(v.buf) {
			nj = 0
		}
		v.buf[j] = v.buf[nj]
	}
	v.n--
	v.occ -= size
	if i <= int(v.ahead) {
		copy(la[i-1:], la[i:v.ahead])
		v.ahead--
	}
	return ref
}

// invalidate drops every cached routing decision of the queue.
func (v *vcQueue) invalidate() {
	v.routed = false
	v.ahead = 0
}

// OutPort is a router output port feeding link Link (an index into
// Network.Links) towards router Dst, that link's destination. It holds no
// pointer, so a route walk reads the next router from the port itself.
// The ejection pseudo-port has Link -1 and Dst -1. Its credit counters
// live in the router's cycle record. A router's ports are a window of one
// network-wide slab (see Network.OutPorts).
type OutPort struct {
	Link int32
	Dst  NodeID
}

// Router is a VC router: input-queued, credit flow control, output-first
// round-robin separable allocation, one packet per output per serialization
// window. The struct holds only topology, what routing and the flow solver
// read, and no pointer: its ports are windows of two network-wide slabs
// (Network.OutPorts, Network.InLinks), its random stream lives with the
// cycle state (Packet.RouteRNG), and its queues, credits and allocation
// state are the cycle engines' and live in its routerCycle record.
type Router struct {
	ID   NodeID
	Kind RouterKind

	// Ideal marks a non-blocking switch: allocation looks past blocked
	// head-of-line packets (bounded lookahead) and the crossbar has input
	// speedup, modelling the paper's "single ideal high-radix router".
	Ideal bool

	// Topology coordinates. X/Y are mesh coordinates when the router is part
	// of a mesh; CGroup/WGroup locate it in the Dragonfly hierarchy (-1 when
	// not applicable); Chip is the terminal chip this router belongs to (-1
	// for pure transit routers); Label is the up*/down* order label; Local
	// is a topology-defined local index (e.g. external port number).
	X, Y   int16
	CGroup int32
	WGroup int32
	Chip   int32
	Label  int32
	Local  int32

	// InjIn / EjectOut index the injection input and ejection output pseudo
	// ports (-1 when the router has none).
	InjIn    int16
	EjectOut int16

	// nIn/nOut count the router's input and output ports; inOff/outOff
	// locate them in the network's in-link and out-port slabs. The Builder
	// counts ports here and Finalize assigns the offsets.
	nIn, nOut     int16
	inOff, outOff int32
}

// idealState is an ideal switch's per-queue allocation scratch, indexed by
// grantIdx. Reusable slices rather than maps, so steady-state cycles
// allocate nothing.
type idealState struct {
	// granted[q] holds now+1 when queue q was granted this cycle, so the
	// switch grants at most one packet per queue per cycle (queue indices
	// in the request lists stay valid).
	granted []int64
	// lookahead[q*idealLookahead+i-1] caches the routing decision for
	// position i of queue q (1 <= i <= vcQueue.ahead), so waiting packets
	// are routed once, not every pass.
	lookahead []routeDecision
}

// allocNever is nextAlloc for a router that sleeps until an event wakes it.
const allocNever = int64(1) << 62

// idealLookahead bounds how many packets per VC queue an ideal switch may
// consider beyond the head.
const idealLookahead = 4

// vcRingWindow is the initial ring capacity (in packet refs) a network VC
// queue gets from its router's shared backing array. Two slots cover the
// common case (a VC holding the packet in service plus one behind it); the
// minority of queues that run deeper under load migrate once to a private
// doubled ring and keep it forever. Kept deliberately small: the windows
// are paid for every VC of every port at build time, and idle VCs — the
// vast majority at any instant — never touch theirs.
const vcRingWindow = 2

// request key encoding: in<<16 | vc<<8 | queueIndex.
func reqKey(in, vc, idx int) int32 {
	return int32(in)<<16 | int32(vc)<<8 | int32(idx)
}

func reqIn(k int32) int  { return int(k >> 16) }
func reqVC(k int32) int  { return int(k>>8) & 0xff }
func reqIdx(k int32) int { return int(k & 0xff) }

// grantIdx indexes an ideal switch's per-queue scratch: the occupancy
// bitmask caps VCs at 8.
func grantIdx(in, vc int) int { return in<<3 | vc }

// lookaheadOf returns the lookahead decisions of queue (in, vc) on an ideal
// router.
//
//sldf:hotpath
func (rc *routerCycle) lookaheadOf(in, vc int) []routeDecision {
	i := grantIdx(in, vc) * idealLookahead
	return rc.ideal.lookahead[i : i+idealLookahead : i+idealLookahead]
}

// enqueue appends a packet of the given size to VC vc of input in,
// maintaining the occupancy bookkeeping, and wakes the router when the
// packet creates a request — it is the VC's head, or within an ideal
// switch's lookahead window — or when the router is stale. It reports
// whether the router was woken; a packet queued behind others changes no
// allocation outcome.
//
//sldf:hotpath
func (rc *routerCycle) enqueue(in, vc int, ref PacketRef, size int32) bool {
	ip := &rc.in[in]
	q := &ip.vcs[vc]
	if q.empty() {
		if ip.occMask == 0 {
			rc.occPorts |= 1 << uint(in)
		}
		ip.occMask |= 1 << vc
		rc.active++
	}
	q.push(ref, size)
	if q.n == 1 || (rc.ideal != nil && q.n <= idealLookahead+1) || rc.stale {
		rc.nextAlloc = 0
		return true
	}
	return false
}

// creditReturned wakes the router when a credit returned to output o can
// change an allocation outcome: a request was blocked on o, the router is
// stale, or it is wide (no per-output mask). It reports whether the router
// was woken.
//
//sldf:hotpath
func (rc *routerCycle) creditReturned(o int) bool {
	if rc.stale || rc.wide || rc.creditWait&(1<<uint(o)) != 0 {
		rc.nextAlloc = 0
		return true
	}
	return false
}

// request files key on output o's request list and marks o in outMask or,
// while o is still serializing, folds its free-up cycle into minWake
// instead: no request to a busy output can be granted this pass.
//
//sldf:hotpath
func (rc *routerCycle) request(o int, key int32, now, minWake int64, outMask uint64) (int64, uint64) {
	if b := rc.out[o].busyUntil; b > now {
		return min(minWake, b), outMask
	}
	rc.requests[o] = append(rc.requests[o], key)
	return minWake, outMask | 1<<uint(o)
}

// allocate (phase B) performs routing + switch allocation for router r,
// whose cycle record rc is, and launches packets onto links. It returns the
// number of packets that moved (for the progress watchdog) and records
// deliveries through the network's sink. act is the owning shard's active
// set, used to stage link activations for their consumer shards; it is nil
// under the reference engine.
func (rc *routerCycle) allocate(net *Network, r *Router, now int64, shard int, act *shardActive) int {
	// Build per-output request lists from occupied ports only. Ordinary
	// routers request only from VC heads; ideal switches additionally
	// request from up to idealLookahead packets behind a blocked head,
	// which removes head-of-line blocking. Every packet is routed once per
	// router: the decision is cached on the queue until it departs.
	// Requests for a still-serializing output are not filed (see request).
	// Request lists are empty on entry (each pass clears what it filled),
	// so no clearing sweep is needed here.
	if rc.active == 0 || rc.nextAlloc > now {
		return 0
	}
	if rc.requests == nil {
		rc.requests = make([][]int32, len(rc.out))
	}
	arena := &net.arena
	wide := rc.wide
	ideal := rc.ideal
	// minWake tracks when the earliest serializing output or input frees
	// up; blockers with no known unblock time (credits, dead links) are
	// recorded in creditWait/eventWait for the wake-up events instead.
	minWake := allocNever
	var outMask uint64
	inIter := rc.occPorts
	in := -1
	for {
		// Next occupied input port: bitmask pop on ordinary routers, full
		// scan on wide ones. Both visit ports in ascending order.
		if wide {
			in++
			if in >= len(rc.in) {
				break
			}
			if rc.in[in].occMask == 0 {
				continue
			}
		} else {
			if inIter == 0 {
				break
			}
			in = bits.TrailingZeros64(inIter)
			inIter &= inIter - 1
		}
		ip := &rc.in[in]
		for m := ip.occMask; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros8(m)
			q := &ip.vcs[vc]
			if !q.routed {
				p := arena.at(q.front())
				out, outVC := net.route(net, r, p)
				q.route = routeDecision{size: p.Size, out: int16(out), vc: outVC}
				q.routed = true
			}
			minWake, outMask = rc.request(int(q.route.out), reqKey(in, vc, 0), now, minWake, outMask)
			if ideal == nil {
				continue
			}
			depth := min(q.size(), idealLookahead+1)
			la := rc.lookaheadOf(in, vc)
			for i := int(q.ahead) + 1; i < depth; i++ {
				p := arena.at(q.at(i))
				out, outVC := net.route(net, r, p)
				la[i-1] = routeDecision{size: p.Size, out: int16(out), vc: outVC}
				q.ahead = uint8(i)
			}
			for i := 1; i < depth; i++ {
				minWake, outMask = rc.request(int(la[i-1].out), reqKey(in, vc, i), now, minWake, outMask)
			}
		}
	}

	moved := 0
	rerun := false
	eventWait := false
	rc.creditWait = 0
	outIter := outMask
	o := -1
	for {
		// Next requested output, ascending either way — the per-cycle
		// busyUntil and grant-epoch interactions rely on this order for
		// determinism. Each visited list is consumed (reset to empty), so
		// request lists are empty again when the pass completes.
		if wide {
			o++
			if o >= len(rc.out) {
				break
			}
			if len(rc.requests[o]) == 0 {
				continue
			}
		} else {
			if outIter == 0 {
				break
			}
			o = bits.TrailingZeros64(outIter)
			outIter &= outIter - 1
		}
		op := &rc.out[o]
		ol := op.link
		reqs := rc.requests[o]
		rc.requests[o] = reqs[:0]
		// Round-robin pick: first eligible requester at or after rr pointer.
		n := len(reqs)
		idx := int(op.rr)
		if idx >= n {
			idx %= n
		}
		granted := -1
		var gd routeDecision
		onEvent := false
		for k := 0; k < n; k, idx = k+1, idx+1 {
			if idx == n {
				idx = 0
			}
			key := reqs[idx]
			in, vc, qi := reqIn(key), reqVC(key), reqIdx(key)
			ip := &rc.in[in]
			d := ip.vcs[vc].route
			if qi > 0 {
				// Ideal-switch lookahead request: at most one grant per VC
				// queue per cycle keeps the queue indices valid.
				if ideal.granted[grantIdx(in, vc)] == now+1 {
					continue
				}
				d = rc.lookaheadOf(in, vc)[qi-1]
			}
			if ideal == nil && ip.busyUntil > now {
				minWake = min(minWake, ip.busyUntil)
				continue
			}
			if ol != nil && (op.credits[d.vc] < d.size || !net.LinkAlive(ol.id)) {
				// No credits — or a dead output link: a disabled link offers
				// no bandwidth, so the packet waits in place until a repair
				// (or a route recompute after the next churn batch) unblocks
				// it. Without this check the two engines diverge: the
				// reference engine's drain lists skip disabled links
				// (blackholing the packet) while the active-set engine would
				// stage the dead link and deliver through the corpse.
				onEvent = true
				continue
			}
			granted = idx
			gd = d
			break
		}
		if granted < 0 {
			// Only an output that granted nothing waits on its credits:
			// a granting one is busy, and wakes its requesters when it
			// frees up.
			if onEvent {
				eventWait = true
				rc.creditWait |= 1 << uint(o)
			}
			continue
		}
		op.rr = uint32(granted + 1)
		key := reqs[granted]
		in, vc, qi := reqIn(key), reqVC(key), reqIdx(key)
		ip := &rc.in[in]
		q := &ip.vcs[vc]
		var la []routeDecision
		if ideal != nil {
			la = rc.lookaheadOf(in, vc)
			ideal.granted[grantIdx(in, vc)] = now + 1
		}
		ref := q.removeAt(qi, gd.size, la)
		p := arena.at(ref)
		if q.empty() {
			ip.occMask &^= 1 << vc
			if ip.occMask == 0 {
				rc.occPorts &^= 1 << uint(in)
			}
			rc.active--
		} else {
			// The queue has a new head (or lookahead packet) to route and
			// request next cycle.
			rerun = true
		}
		moved++
		il := ip.link
		if il == nil {
			// Leaving the source queue: network latency starts here.
			p.InjectedAt = now
		} else if net.LinkAlive(il.id) {
			// Return credits upstream for the buffer space just freed. A
			// dead feeding link gets no credit (its books are rebuilt on
			// repair); on static networks a disabled link never delivers a
			// packet, so the guard never fires.
			il.credit.push(timedCredit{
				at:    now + int64(il.delay),
				flits: p.Size,
				vc:    uint8(vc),
			})
			if act != nil {
				act.stageCreditLink(il)
			}
		}

		// Ejection: the terminal interface accepts one packet per Size
		// cycles.
		ser := int64(p.Size)
		if ol != nil {
			ser = ol.serCycles(p.Size)
		}
		op.busyUntil = now + ser
		if ideal == nil {
			ip.busyUntil = now + ser
		}
		if n > 1 {
			// The requesters the grant passed over wait for this output.
			minWake = min(minWake, op.busyUntil)
		}
		if ol == nil {
			p.DeliveredAt = now + ser
			p.Hops[HopEject]++
			net.deliver(shard, ref, p)
			continue
		}

		op.credits[gd.vc] -= p.Size
		p.VC = gd.vc
		p.Hops[ol.class]++
		if net.inWindow(now) {
			ol.winFlits += int64(p.Size)
		}
		// Virtual cut-through: head available downstream after wire delay
		// plus one cycle of flit time.
		ol.data.push(ref, now+int64(ol.delay)+1)
		if act != nil {
			act.stageDataLink(ol)
		}
	}
	// Every request left waits on a busy output or input (minWake) or on
	// an event, so the next pass repeats this one's outcome until one of
	// them clears: sleep until the earliest serialization wake-up, or
	// until an event (see nextAlloc) when every blocker waits on one. Only
	// a grant that left its queue non-empty exposes new work next cycle.
	rc.stale = false
	rc.eventWait = eventWait
	if moved > 0 {
		rc.movedBy = now + 1
	}
	if rerun {
		rc.nextAlloc = 0
	} else {
		rc.nextAlloc = minWake
	}
	return moved
}
