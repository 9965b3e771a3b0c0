package netsim

import (
	"math/bits"

	"sldf/internal/engine"
)

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

// InPort is a router input port: one VC-partitioned buffer fed by a link.
// The injection pseudo-port has a nil link and a single unbounded queue.
type InPort struct {
	Link      *Link
	VCs       []vcQueue
	busyUntil int64 // input crossbar bandwidth constraint
	// occMask has bit v set iff VCs[v] is non-empty; kept by the router's
	// own shard so allocation can skip empty ports without scanning.
	occMask uint8
}

// Queued returns the total flits buffered across the port's VCs, used by
// adaptive routing decisions and tests.
func (ip *InPort) Queued() int32 {
	var n int32
	for i := range ip.VCs {
		n += ip.VCs[i].occ
	}
	return n
}

// OutPort is a router output port: a link plus per-downstream-VC credits.
// The ejection pseudo-port has a nil link and no credit limit.
type OutPort struct {
	Link      *Link
	Credits   []int32
	busyUntil int64
	// rr is the round-robin pointer for switch allocation on this output.
	rr uint32
}

// FreeCredits returns the credits available on downstream VC vc. Before a
// cycle engine has allocated the credit counters the network is idle, so
// every downstream buffer is free.
func (op *OutPort) FreeCredits(vc uint8) int32 {
	if op.Link == nil {
		return 1 << 30
	}
	if op.Credits == nil {
		return op.Link.BufFlits
	}
	return op.Credits[vc]
}

// Router is a VC router: input-queued, credit flow control, output-first
// round-robin separable allocation, one packet per output per serialization
// window.
type Router struct {
	ID   NodeID
	Kind RouterKind

	// Disabled marks a failed router (defective die). Set by build-time
	// faults (Network.ApplyFaults) and churn events; a disabled router never
	// injects, never receives traffic (fault-aware routing avoids it), and
	// therefore never enters an engine's active set.
	Disabled bool

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

	In  []InPort
	Out []OutPort

	// InjIn / EjectOut index the injection input and ejection output pseudo
	// ports (-1 when the router has none).
	InjIn    int16
	EjectOut int16

	// Ideal marks a non-blocking switch: allocation looks past blocked
	// head-of-line packets (bounded lookahead) and the crossbar has input
	// speedup, modelling the paper's "single ideal high-radix router".
	Ideal bool

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

	// active counts non-empty (input port, VC) queues; allocation is
	// skipped entirely while it is zero.
	active int32
	// occPorts has bit i set iff In[i].occMask != 0, so allocation visits
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

	RNG engine.RNG

	// requests is scratch space for the per-cycle allocation pass:
	// requests[out] lists candidate (inPort, vc, queueIndex) keys.
	requests [][]int32
	// ideal is an ideal switch's allocation scratch, allocated on its
	// first pass; nil on ordinary routers.
	ideal *idealState
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
func (r *Router) lookaheadOf(in, vc int) []routeDecision {
	i := grantIdx(in, vc) * idealLookahead
	return r.ideal.lookahead[i : i+idealLookahead : i+idealLookahead]
}

// enqueue appends a packet of the given size to VC vc of input in,
// maintaining the occupancy bookkeeping, and wakes the router when the
// packet creates a request — it is the VC's head, or within an ideal
// switch's lookahead window — or when the router is stale. It reports
// whether the router was woken; a packet queued behind others changes no
// allocation outcome.
//
//sldf:hotpath
func (r *Router) enqueue(in, vc int, ref PacketRef, size int32) bool {
	ip := &r.In[in]
	q := &ip.VCs[vc]
	if q.empty() {
		if ip.occMask == 0 {
			r.occPorts |= 1 << uint(in)
		}
		ip.occMask |= 1 << vc
		r.active++
	}
	q.push(ref, size)
	if q.n == 1 || (r.Ideal && q.n <= idealLookahead+1) || r.stale {
		r.nextAlloc = 0
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
func (r *Router) creditReturned(o int) bool {
	if r.stale || r.wide || r.creditWait&(1<<uint(o)) != 0 {
		r.nextAlloc = 0
		return true
	}
	return false
}

// request files key on output o's request list and marks o in outMask or,
// while o is still serializing, folds its free-up cycle into minWake
// instead: no request to a busy output can be granted this pass.
//
//sldf:hotpath
func (r *Router) request(o int, key int32, now, minWake int64, outMask uint64) (int64, uint64) {
	if b := r.Out[o].busyUntil; b > now {
		return min(minWake, b), outMask
	}
	r.requests[o] = append(r.requests[o], key)
	return minWake, outMask | 1<<uint(o)
}

// allocate (phase B) performs routing + switch allocation and launches
// packets onto links. It returns the number of packets that moved (for the
// progress watchdog) and records deliveries through the network's sink.
// act is the owning shard's active set, used to stage link activations for
// their consumer shards; it is nil under the reference engine.
func (r *Router) allocate(net *Network, now int64, shard int, act *shardActive) int {
	// Build per-output request lists from occupied ports only. Ordinary
	// routers request only from VC heads; ideal switches additionally
	// request from up to idealLookahead packets behind a blocked head,
	// which removes head-of-line blocking. Every packet is routed once per
	// router: the decision is cached on the queue until it departs.
	// Requests for a still-serializing output are not filed (see request).
	// Request lists are empty on entry (each pass clears what it filled),
	// so no clearing sweep is needed here.
	if r.active == 0 || r.nextAlloc > now {
		return 0
	}
	if r.requests == nil {
		r.requests = make([][]int32, len(r.Out))
	}
	if r.Ideal && r.ideal == nil {
		r.ideal = &idealState{
			granted:   make([]int64, len(r.In)<<3),
			lookahead: make([]routeDecision, len(r.In)<<3*idealLookahead),
		}
	}
	arena := &net.arena
	wide := r.wide
	// minWake tracks when the earliest serializing output or input frees
	// up; blockers with no known unblock time (credits, dead links) are
	// recorded in creditWait/eventWait for the wake-up events instead.
	minWake := allocNever
	var outMask uint64
	inIter := r.occPorts
	in := -1
	for {
		// Next occupied input port: bitmask pop on ordinary routers, full
		// scan on wide ones. Both visit ports in ascending order.
		if wide {
			in++
			if in >= len(r.In) {
				break
			}
			if r.In[in].occMask == 0 {
				continue
			}
		} else {
			if inIter == 0 {
				break
			}
			in = bits.TrailingZeros64(inIter)
			inIter &= inIter - 1
		}
		ip := &r.In[in]
		for m := ip.occMask; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros8(m)
			q := &ip.VCs[vc]
			if !q.routed {
				p := arena.at(q.front())
				out, outVC := net.route(net, r, p)
				q.route = routeDecision{size: p.Size, out: int16(out), vc: outVC}
				q.routed = true
			}
			minWake, outMask = r.request(int(q.route.out), reqKey(in, vc, 0), now, minWake, outMask)
			if !r.Ideal {
				continue
			}
			depth := min(q.size(), idealLookahead+1)
			la := r.lookaheadOf(in, vc)
			for i := int(q.ahead) + 1; i < depth; i++ {
				p := arena.at(q.at(i))
				out, outVC := net.route(net, r, p)
				la[i-1] = routeDecision{size: p.Size, out: int16(out), vc: outVC}
				q.ahead = uint8(i)
			}
			for i := 1; i < depth; i++ {
				minWake, outMask = r.request(int(la[i-1].out), reqKey(in, vc, i), now, minWake, outMask)
			}
		}
	}

	moved := 0
	rerun := false
	eventWait := false
	r.creditWait = 0
	outIter := outMask
	o := -1
	for {
		// Next requested output, ascending either way — the per-cycle
		// busyUntil and grant-epoch interactions rely on this order for
		// determinism. Each visited list is consumed (reset to empty), so
		// request lists are empty again when the pass completes.
		if wide {
			o++
			if o >= len(r.Out) {
				break
			}
			if len(r.requests[o]) == 0 {
				continue
			}
		} else {
			if outIter == 0 {
				break
			}
			o = bits.TrailingZeros64(outIter)
			outIter &= outIter - 1
		}
		op := &r.Out[o]
		reqs := r.requests[o]
		r.requests[o] = reqs[:0]
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
			ip := &r.In[in]
			d := ip.VCs[vc].route
			if qi > 0 {
				// Ideal-switch lookahead request: at most one grant per VC
				// queue per cycle keeps the queue indices valid.
				if r.ideal.granted[grantIdx(in, vc)] == now+1 {
					continue
				}
				d = r.lookaheadOf(in, vc)[qi-1]
			}
			if !r.Ideal && ip.busyUntil > now {
				minWake = min(minWake, ip.busyUntil)
				continue
			}
			if op.Link != nil && (op.Credits[d.vc] < d.size || op.Link.Disabled) {
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
				r.creditWait |= 1 << uint(o)
			}
			continue
		}
		op.rr = uint32(granted + 1)
		key := reqs[granted]
		in, vc, qi := reqIn(key), reqVC(key), reqIdx(key)
		ip := &r.In[in]
		q := &ip.VCs[vc]
		var la []routeDecision
		if r.Ideal {
			la = r.lookaheadOf(in, vc)
			r.ideal.granted[grantIdx(in, vc)] = now + 1
		}
		ref := q.removeAt(qi, gd.size, la)
		p := arena.at(ref)
		if q.empty() {
			ip.occMask &^= 1 << vc
			if ip.occMask == 0 {
				r.occPorts &^= 1 << uint(in)
			}
			r.active--
		} else {
			// The queue has a new head (or lookahead packet) to route and
			// request next cycle.
			rerun = true
		}
		moved++
		if ip.Link == nil {
			// Leaving the source queue: network latency starts here.
			p.InjectedAt = now
		}

		// Return credits upstream for the buffer space just freed. A dead
		// feeding link gets no credit (its books are rebuilt on repair);
		// on static networks a disabled link never delivers a packet, so
		// the guard never fires.
		if ip.Link != nil && !ip.Link.Disabled {
			ip.Link.credit.push(timedCredit{
				at:    now + int64(ip.Link.Delay),
				flits: p.Size,
				vc:    uint8(vc),
			})
			if act != nil {
				act.stageCreditLink(ip.Link)
			}
		}

		// Ejection: the terminal interface accepts one packet per Size
		// cycles.
		ser := int64(p.Size)
		if op.Link != nil {
			ser = op.Link.serCycles(p.Size)
		}
		op.busyUntil = now + ser
		if !r.Ideal {
			ip.busyUntil = now + ser
		}
		if n > 1 {
			// The requesters the grant passed over wait for this output.
			minWake = min(minWake, op.busyUntil)
		}
		if op.Link == nil {
			p.DeliveredAt = now + ser
			p.Hops[HopEject]++
			net.deliver(shard, ref, p)
			continue
		}

		l := op.Link
		op.Credits[gd.vc] -= p.Size
		p.VC = gd.vc
		p.Hops[l.Class]++
		if net.inWindow(now) {
			l.winFlits += int64(p.Size)
		}
		// Virtual cut-through: head available downstream after wire delay
		// plus one cycle of flit time.
		l.data.push(ref, now+int64(l.Delay)+1)
		if act != nil {
			act.stageDataLink(l)
		}
	}
	// Every request left waits on a busy output or input (minWake) or on
	// an event, so the next pass repeats this one's outcome until one of
	// them clears: sleep until the earliest serialization wake-up, or
	// until an event (see nextAlloc) when every blocker waits on one. Only
	// a grant that left its queue non-empty exposes new work next cycle.
	r.stale = false
	r.eventWait = eventWait
	if moved > 0 {
		r.movedBy = now + 1
	}
	if rerun {
		r.nextAlloc = 0
	} else {
		r.nextAlloc = minWake
	}
	return moved
}
