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
	// cached head routing decision; routed=false after any head change.
	routed  bool
	outPort int16
	outVC   uint8
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
// flit count (the caller holds the packet already).
//
//sldf:hotpath
func (v *vcQueue) pop(size int32) PacketRef {
	ref := v.buf[v.head]
	v.head++
	if int(v.head) == len(v.buf) {
		v.head = 0
	}
	v.n--
	v.occ -= size
	v.routed = false
	return ref
}

// removeAt removes and returns the i-th queued ref, preserving the order
// of the others. Used by ideal (non-blocking) switches to bypass a blocked
// head-of-line packet.
//
//sldf:hotpath
func (v *vcQueue) removeAt(i int, size int32) PacketRef {
	if i == 0 {
		return v.pop(size)
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
	return ref
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

	// Disabled marks a failed router (defective die). Set through
	// Network.ApplyFaults before simulation starts; a disabled router never
	// injects, never receives traffic (fault-aware routing avoids it), and
	// therefore never enters an engine's active set.
	Disabled bool

	// active counts non-empty (input port, VC) queues; allocation is
	// skipped entirely while it is zero.
	active int32
	// occPorts has bit i set iff In[i].occMask != 0, so allocation visits
	// only occupied ports. Maintained alongside occMask; meaningless (and
	// unused) when wide is set.
	occPorts uint64
	// wide marks a router with more than 64 input or output ports, which
	// falls back to full port scans instead of the bitmask fast paths.
	wide bool
	// nextAlloc is the earliest cycle at which allocation could succeed
	// again when every requested output was serializing; any new arrival,
	// credit return or injection resets it to zero.
	nextAlloc int64

	RNG engine.RNG

	// requests is scratch space for the per-cycle allocation pass:
	// requests[out] lists candidate (inPort, vc, queueIndex) keys.
	requests [][]int32
	// granted[in*8+vc] holds now+1 when that VC queue was granted this
	// cycle, so an ideal switch grants at most one packet per queue per
	// cycle (queue indices in the request lists stay valid). A reusable
	// slice rather than a map so steady-state cycles allocate nothing.
	granted []int64
}

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

// grantIdx indexes Router.granted: the occupancy bitmask caps VCs at 8.
func grantIdx(in, vc int) int { return in<<3 | vc }

// allocate (phase B) performs routing + switch allocation and launches
// packets onto links. It returns the number of packets that moved (for the
// progress watchdog) and records deliveries through the network's sink.
// act is the owning shard's active set, used to stage link activations for
// their consumer shards; it is nil under the reference engine.
func (r *Router) allocate(net *Network, now int64, shard int, act *shardActive) int {
	// Build per-output request lists from occupied ports only. Ordinary
	// routers request only from VC heads (with the routing decision
	// cached); ideal switches additionally request from up to
	// idealLookahead packets behind a blocked head, which removes
	// head-of-line blocking. Request lists are empty on entry (each pass
	// clears what it filled), so no clearing sweep is needed here.
	if r.active == 0 || r.nextAlloc > now {
		return 0
	}
	if r.requests == nil {
		r.requests = make([][]int32, len(r.Out))
	}
	arena := &net.arena
	wide := r.wide
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
		for vc := range ip.VCs {
			if ip.occMask&(1<<vc) == 0 {
				continue
			}
			q := &ip.VCs[vc]
			if !q.routed {
				p := arena.at(q.front())
				out, outVC := net.route(net, r, p)
				q.outPort = int16(out)
				q.outVC = outVC
				q.routed = true
			}
			r.requests[q.outPort] = append(r.requests[q.outPort], reqKey(in, vc, 0))
			outMask |= 1 << uint(q.outPort)
			if r.Ideal {
				depth := q.size()
				if depth > idealLookahead+1 {
					depth = idealLookahead + 1
				}
				for i := 1; i < depth; i++ {
					out, _ := net.route(net, r, arena.at(q.at(i)))
					r.requests[out] = append(r.requests[out], reqKey(in, vc, i))
					outMask |= 1 << uint(out)
				}
			}
		}
	}
	if r.Ideal && r.granted == nil {
		r.granted = make([]int64, len(r.In)<<3)
	}

	moved := 0
	// minWake tracks when the earliest serializing output frees up;
	// otherwiseBlocked records blockers without a known unblock time
	// (credits, input bandwidth), which are handled by event resets.
	minWake := int64(1) << 62
	otherwiseBlocked := false
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
		if op.busyUntil > now {
			if op.busyUntil < minWake {
				minWake = op.busyUntil
			}
			continue
		}
		// Round-robin pick: first eligible requester at or after rr pointer.
		n := len(reqs)
		granted := -1
		var gOutVC uint8
		var gp *Packet
		for k := 0; k < n; k++ {
			idx := (int(op.rr) + k) % n
			key := reqs[idx]
			in, vc, qi := reqIn(key), reqVC(key), reqIdx(key)
			ip := &r.In[in]
			q := &ip.VCs[vc]
			var p *Packet
			var outVC uint8
			if qi == 0 {
				p = arena.at(q.front())
				outVC = q.outVC
			} else {
				// Ideal-switch lookahead request: at most one grant per VC
				// queue per cycle keeps the queue indices valid.
				if r.granted[grantIdx(in, vc)] == now+1 || qi >= q.size() {
					continue
				}
				p = arena.at(q.at(qi))
				var out int
				out, outVC = net.route(net, r, p)
				if out != o {
					continue
				}
			}
			if !r.Ideal && ip.busyUntil > now {
				if ip.busyUntil < minWake {
					minWake = ip.busyUntil
				}
				continue
			}
			if op.Link != nil && (op.Credits[outVC] < p.Size ||
				(net.churn != nil && op.Link.Disabled)) {
				// No credits — or, under an armed fault timeline, a dead
				// output link: a disabled link offers no bandwidth, so the
				// packet waits in place until a repair (or a route recompute
				// after the next churn batch) unblocks it. Without this check
				// the two engines diverge: the reference engine's drain lists
				// skip disabled links (blackholing the packet) while the
				// active-set engine would stage the dead link and deliver
				// through the corpse.
				otherwiseBlocked = true
				continue
			}
			granted = idx
			gOutVC = outVC
			gp = p
			break
		}
		if granted < 0 {
			continue
		}
		op.rr = uint32(granted + 1)
		key := reqs[granted]
		in, vc, qi := reqIn(key), reqVC(key), reqIdx(key)
		ip := &r.In[in]
		q := &ip.VCs[vc]
		p := gp
		ref := q.removeAt(qi, p.Size)
		if q.empty() {
			ip.occMask &^= 1 << vc
			if ip.occMask == 0 {
				r.occPorts &^= 1 << uint(in)
			}
			r.active--
		}
		if r.Ideal {
			r.granted[grantIdx(in, vc)] = now + 1
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

		if op.Link == nil {
			// Ejection: the terminal interface accepts one packet per Size
			// cycles.
			ser := int64(p.Size)
			op.busyUntil = now + ser
			if !r.Ideal {
				ip.busyUntil = now + ser
			}
			p.DeliveredAt = now + ser
			p.Hops[HopEject]++
			net.deliver(shard, ref, p)
			continue
		}

		l := op.Link
		ser := l.serCycles(p.Size)
		op.busyUntil = now + ser
		if !r.Ideal {
			ip.busyUntil = now + ser
		}
		op.Credits[gOutVC] -= p.Size
		p.VC = gOutVC
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
	// Sleep until the earliest known unblock time when nothing moved and no
	// blocker depends on asynchronous events (credits); arrivals, credit
	// returns and injections reset nextAlloc through the drain/generate
	// paths.
	if moved == 0 && !otherwiseBlocked && minWake < int64(1)<<62 {
		r.nextAlloc = minWake
	} else {
		r.nextAlloc = 0
	}
	return moved
}
