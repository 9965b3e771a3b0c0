package netsim

import (
	"errors"
	"fmt"
	"sort"

	"sldf/internal/engine"
)

// TimedFault is one scheduled churn event: a router or link dying (or
// coming back) at the start of cycle Cycle. Exactly one of Router/Link is
// set; the other holds -1. Repairs are reference-counted against deaths:
// a component is alive again only when every death event that hit it has
// been matched by a repair (and it was not already disabled at build time).
type TimedFault struct {
	Cycle  int64
	Repair bool
	Router NodeID // router event when >= 0
	Link   int32  // link event when >= 0 (and Router < 0)
}

// RouterFault builds a router death/repair event.
func RouterFault(cycle int64, id NodeID, repair bool) TimedFault {
	return TimedFault{Cycle: cycle, Repair: repair, Router: id, Link: -1}
}

// LinkFault builds a link death/repair event.
func LinkFault(cycle int64, id int32, repair bool) TimedFault {
	return TimedFault{Cycle: cycle, Repair: repair, Router: -1, Link: id}
}

// DropPolicy selects what happens to in-flight packets stranded by a churn
// event (queued in a dying router, traveling a dying link, or addressed to
// a chip that just lost its last terminal).
type DropPolicy uint8

const (
	// DropInFlight discards stranded packets, counting them in
	// Stats.DroppedPkts. The lossy-fabric model: reliability is someone
	// else's layer.
	DropInFlight DropPolicy = iota
	// RetrySource re-enqueues a stranded packet at its source terminal's
	// injection queue (counting Stats.RetriedPkts) so it is re-routed from
	// scratch; packets whose source or destination chip is dead are dropped
	// as under DropInFlight.
	RetrySource
)

// String names the drop policy.
func (p DropPolicy) String() string {
	switch p {
	case DropInFlight:
		return "drop"
	case RetrySource:
		return "retry"
	}
	return "unknown"
}

// SortTimedFaults puts events in canonical application order: by cycle,
// deaths before repairs, then router ID, then link ID. Every timeline
// producer (topology.FaultTimeline, tests, CLIs) sorts with this so a given
// event set always applies identically.
func SortTimedFaults(events []TimedFault) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Repair != b.Repair {
			return !a.Repair
		}
		if a.Router != b.Router {
			return a.Router < b.Router
		}
		return a.Link < b.Link
	})
}

// churnState is the armed fault timeline of a network: the pending event
// list and its cursor and the stranded-packet policy. The component
// bookkeeping the events act on, chip liveness included, lives in the
// network's faultBook.
type churnState struct {
	events []TimedFault
	next   int // first unapplied event
	policy DropPolicy

	// err is the first failure to enter a batch's fault-state routing. It
	// aborts the run: the next Run/RunUntil/Drain call surfaces it.
	err error

	// appliedAny marks that some batch has been applied since the last
	// Reset (ApplyFaults and SetFaultRouting refuse to run then).
	appliedAny bool
}

// strandedRef is one packet awaiting post-batch disposal, tagged with the
// shard whose counters and free list account for it.
type strandedRef struct {
	ref   PacketRef
	shard int32
}

// ChurnArmed reports whether a fault timeline is installed.
func (n *Network) ChurnArmed() bool { return n.churn != nil }

// ChurnPending returns the number of timeline events not yet applied.
func (n *Network) ChurnPending() int {
	if n.churn == nil {
		return 0
	}
	return len(n.churn.events) - n.churn.next
}

// ChurnErr returns the error (if any) raised while entering a churn
// batch's fault-state routing.
func (n *Network) ChurnErr() error {
	if n.churn == nil {
		return nil
	}
	return n.churn.err
}

// ScheduleChurn arms a fault timeline on a freshly built (or reset)
// network. events are copied and canonically sorted; policy selects the
// stranded-packet treatment. Chip liveness (AliveChips) and fault-aware
// routing installed with SetFaultRouting follow the timeline on their own.
//
// Must be called at cycle zero. Events act on the base state — the
// pristine network plus every ApplyFaults set, whether applied before or
// after arming — which repairs never undo and Reset restores. An empty
// event list is valid and leaves simulation bitwise identical to an
// unarmed network.
func (n *Network) ScheduleChurn(events []TimedFault, policy DropPolicy) error {
	if n.Cycle != 0 {
		return fmt.Errorf("netsim: ScheduleChurn at cycle %d; arm timelines before the first Step", n.Cycle)
	}
	for _, e := range events {
		if err := n.checkFault(e); err != nil {
			return err
		}
	}
	c := &churnState{
		events: append([]TimedFault(nil), events...),
		policy: policy,
	}
	SortTimedFaults(c.events)
	n.book()
	n.churn = c
	return nil
}

// checkFault validates one build-time fault or churn event.
func (n *Network) checkFault(e TimedFault) error {
	if e.Cycle < 0 {
		return fmt.Errorf("netsim: fault event at negative cycle %d", e.Cycle)
	}
	switch {
	case e.Router >= 0:
		if int(e.Router) >= len(n.Routers) {
			return fmt.Errorf("netsim: fault router %d out of range [0,%d)", e.Router, len(n.Routers))
		}
	case e.Link >= 0:
		if int(e.Link) >= len(n.Links) {
			return fmt.Errorf("netsim: fault link %d out of range [0,%d)", e.Link, len(n.Links))
		}
	default:
		return errors.New("netsim: fault event names neither a router nor a link")
	}
	return nil
}

// InjectChurn applies events immediately, at the current step boundary
// (between Steps, or before the first). The timeline must be armed — a
// zero-event ScheduleChurn is the way to enable pure programmatic churn.
// The canonical sort is applied to the batch, which applies as one.
func (n *Network) InjectChurn(events []TimedFault) error {
	if n.churn == nil {
		return errors.New("netsim: InjectChurn on a network with no armed timeline (ScheduleChurn first)")
	}
	if len(events) == 0 {
		return nil
	}
	for _, e := range events {
		if err := n.checkFault(e); err != nil {
			return err
		}
	}
	batch := append([]TimedFault(nil), events...)
	SortTimedFaults(batch)
	n.applyChurnBatch(batch)
	return n.churn.err
}

// applyDueChurn applies every timeline event scheduled at or before the
// current cycle. Called serially at the top of Step; zero pending events
// cost one comparison.
func (n *Network) applyDueChurn() {
	c := n.churn
	if c.next >= len(c.events) || c.events[c.next].Cycle > n.Cycle {
		return
	}
	lo := c.next
	for c.next < len(c.events) && c.events[c.next].Cycle <= n.Cycle {
		c.next++
	}
	n.applyChurnBatch(c.events[lo:c.next])
}

// applyChurnBatch applies one batch of events, then rebuilds the derived
// structures (chip tables, injector and drain lists, active sets), strands
// packets per policy, enters the new fault state's routing (fault-state
// routing, see SetFaultRouting). Serial: called only between engine
// phases.
func (n *Network) applyChurnBatch(batch []TimedFault) {
	c, b := n.churn, n.faults
	b.toggledRouters = b.toggledRouters[:0]
	b.toggledLinks = b.toggledLinks[:0]
	c.appliedAny = true
	for _, e := range batch {
		if e.Repair {
			n.repairOne(e)
		} else {
			n.killOne(e)
		}
	}
	if fr := n.faultRoute; fr != nil {
		fr.toggle(b.toggledRouters, b.toggledLinks, len(n.Links))
	}
	n.rebuildChipNodes()
	for _, s := range b.scratch {
		n.strandPacket(s.ref, n.arena.at(s.ref), int(s.shard))
	}
	b.scratch = b.scratch[:0]
	// Strand packets whose destination chip died; a packet whose exact
	// destination terminal died on a surviving chip is retargeted to a
	// deterministic sibling terminal.
	n.strandInFlight(func(_ *Router, p *Packet) bool {
		if !n.ChipAlive(p.DstChip) {
			return false
		}
		if !n.RouterAlive(p.DstNode) {
			p.DstNode = n.ChipNodes[p.DstChip][int(p.SrcNode)%len(n.ChipNodes[p.DstChip])]
		}
		return true
	})
	n.rebuildShardLists()
	if n.engineKind == EngineActiveSet {
		n.rebuildActive()
	}
	if n.faultRoute != nil && c.err == nil {
		c.err = n.enterFaultState(true)
	}
}

// killOne applies one death event: bump reference counts and, on an
// alive→dead transition, clear the component's queued traffic. Shared by
// build-time faults and churn batches.
func (n *Network) killOne(e TimedFault) {
	c := n.faults
	if e.Router < 0 {
		c.linkRefs[e.Link]++
		n.killLink(&n.Links[e.Link])
		return
	}
	c.routerRefs[e.Router]++
	if c.routerDown.Has(int(e.Router)) {
		return // already down (base fault or earlier death)
	}
	c.routerDown.Add(int(e.Router))
	c.toggledRouters = append(c.toggledRouters, e.Router)
	r := &n.Routers[e.Router]
	n.clearRouter(r)
	n.eachLink(r, func(l *Link) {
		c.linkRefs[l.ID]++
		n.killLink(l)
	})
}

// eachLink calls fn on every link into and then out of r, in port order.
func (n *Network) eachLink(r *Router, fn func(*Link)) {
	for _, l := range n.InLinks(r) {
		if l >= 0 {
			fn(&n.Links[l])
		}
	}
	for _, op := range n.OutPorts(r) {
		if op.Link >= 0 {
			fn(&n.Links[op.Link])
		}
	}
}

// killLink disables a link (idempotent) and drops its in-flight traffic.
func (n *Network) killLink(l *Link) {
	b := n.faults
	if b.linkDown.Has(int(l.ID)) {
		return
	}
	b.linkDown.Add(int(l.ID))
	b.toggledLinks = append(b.toggledLinks, l.ID)
	if n.cyc == nil {
		return
	}
	lc := &n.cyc.links[l.ID]
	for {
		ref, ok := lc.data.popReady(1 << 62)
		if !ok {
			break
		}
		b.scratch = append(b.scratch, strandedRef{ref, lc.dstShard})
	}
	lc.credit.clear()
}

// clearRouter drops every packet queued in r (deferred to post-batch
// disposal) and zeroes its allocation state, as if freshly reset. No
// credits are returned: every link into a dying router dies with it, and
// repair rebuilds the credit books.
func (n *Network) clearRouter(r *Router) {
	if n.cyc == nil {
		return
	}
	rc := &n.cyc.routers[r.ID]
	shard := int32(n.shardOfRouter(r.ID))
	for in := range rc.in {
		for vc := range rc.in[in].vcs {
			q := &rc.in[in].vcs[vc]
			for k := 0; k < q.size(); k++ {
				n.faults.scratch = append(n.faults.scratch, strandedRef{q.at(k), shard})
			}
		}
	}
	rc.idle()
}

// repairOne applies one repair event: decrement reference counts and, on a
// dead→alive transition, restore the component to service with a coherent
// credit state.
func (n *Network) repairOne(e TimedFault) {
	c := n.faults
	if e.Router < 0 {
		if c.linkRefs[e.Link] > 0 {
			c.linkRefs[e.Link]--
			n.maybeReviveLink(&n.Links[e.Link])
		}
		return
	}
	if c.routerRefs[e.Router] == 0 {
		return // unmatched repair: no-op
	}
	c.routerRefs[e.Router]--
	if c.routerRefs[e.Router] > 0 || c.baseRouterDown.Has(int(e.Router)) {
		return
	}
	c.routerDown.Remove(int(e.Router))
	c.toggledRouters = append(c.toggledRouters, e.Router)
	r := &n.Routers[e.Router]
	n.clearRouter(r) // queues are already empty; re-zeroes port state
	n.eachLink(r, func(l *Link) {
		if c.linkRefs[l.ID] > 0 {
			c.linkRefs[l.ID]--
		}
		n.maybeReviveLink(l)
	})
}

// maybeReviveLink re-enables l when nothing holds it down any more,
// restoring the upstream credit counters to the downstream buffer's actual
// free space (packets parked in the downstream VCs across the outage keep
// their claim).
func (n *Network) maybeReviveLink(l *Link) {
	c := n.faults
	id := int(l.ID)
	if !c.linkDown.Has(id) || c.linkRefs[id] > 0 || c.baseLinkDown.Has(id) ||
		c.routerDown.Has(int(l.Src)) || c.routerDown.Has(int(l.Dst)) {
		return
	}
	c.linkDown.Remove(id)
	c.toggledLinks = append(c.toggledLinks, l.ID)
	cs := n.cyc
	if cs == nil {
		return
	}
	lc := &cs.links[l.ID]
	lc.data.clear()
	lc.credit.clear()
	src := &cs.routers[l.Src]
	op := &src.out[l.SrcPort]
	ip := &cs.routers[l.Dst].in[l.DstPort]
	for vc := range op.credits {
		occ := int32(0)
		if vc < len(ip.vcs) {
			occ = ip.vcs[vc].occ
		}
		op.credits[vc] = l.BufFlits - occ
	}
	src.nextAlloc = 0
}

// strandPacket disposes of one in-flight packet per the drop policy,
// crediting the counters of the given shard (whose free list receives the
// arena slot).
func (n *Network) strandPacket(ref PacketRef, p *Packet, shard int) {
	ss := &n.shard[shard]
	if n.churn.policy == RetrySource && n.retryAtSource(p, ref) {
		ss.retriedPkts++
		return
	}
	ss.droppedPkts++
	ss.free = append(ss.free, ref)
}

// retryAtSource re-enqueues p at its source terminal's injection queue for
// a fresh attempt, reporting false when source or destination is gone (the
// caller then drops the packet).
func (n *Network) retryAtSource(p *Packet, ref PacketRef) bool {
	if !n.ChipAlive(p.SrcChip) || !n.ChipAlive(p.DstChip) {
		return false
	}
	src := &n.Routers[p.SrcNode]
	if !n.RouterAlive(src.ID) || src.InjIn < 0 {
		// The original terminal died: hand the retry to the chip's first
		// surviving terminal (deterministic choice).
		src = &n.Routers[n.ChipNodes[p.SrcChip][0]]
		p.SrcNode = src.ID
	}
	p.VC, p.Phase = 0, 0
	p.Aux, p.Aux2 = -1, -1
	// A retry always wakes its source, even behind other queued packets:
	// the batch invalidates the source's cached routes, and its next pass
	// re-routes them (strandInFlight). Called mid-batch, so the batch's
	// rebuildActive puts the router back on its shard's active set.
	rc := &n.cyc.routers[src.ID]
	rc.enqueue(int(src.InjIn), 0, ref, p.Size)
	rc.nextAlloc = 0
	return true
}

// rebuildChipNodes refilters every chip's terminal table from the base
// snapshot against current router liveness, keeping Local indices in
// sync with slice positions (DstSameIndex addressing) and the liveness
// table current.
func (n *Network) rebuildChipNodes() {
	b := n.faults
	for chip, base := range b.baseChipNodes {
		nodes := n.ChipNodes[chip][:0]
		if nodes == nil && len(base) > 0 {
			nodes = make([]NodeID, 0, len(base))
		}
		for _, id := range base {
			if n.RouterAlive(id) {
				nodes = append(nodes, id)
			}
		}
		b.alive[chip] = len(nodes) > 0
		if len(nodes) == 0 {
			n.ChipNodes[chip] = nil
			continue
		}
		n.ChipNodes[chip] = nodes
		for idx, id := range nodes {
			n.Routers[id].Local = int32(idx)
		}
	}
}

// unqueuePacket removes the k-th packet of queue (in, vc) on the router
// whose cycle record rc is, maintaining the occupancy bookkeeping and
// returning the freed buffer space upstream when the feeding link is alive.
func (n *Network) unqueuePacket(rc *routerCycle, in, vc, k int, p *Packet) {
	ip := &rc.in[in]
	q := &ip.vcs[vc]
	q.removeAt(k, p.Size, nil) // the caller invalidated q's cached decisions
	if q.empty() {
		ip.occMask &^= 1 << vc
		if ip.occMask == 0 {
			rc.occPorts &^= 1 << uint(in)
		}
		rc.active--
	}
	if l := ip.link; l != nil && n.LinkAlive(l.ID) {
		l.credit.push(timedCredit{at: n.Cycle + int64(l.Delay), flits: p.Size, vc: uint8(vc)})
	}
}

// filterLinkPackets keeps only the data-queue packets for which keep
// returns true, preserving order and delivery times; removed packets are
// stranded per policy with their buffer claim returned upstream (the
// downstream buffer was never charged for packets still on the wire, but
// the upstream output port's credit was).
func (n *Network) filterLinkPackets(l *linkCycle, keep func(*Packet) bool) {
	f := &l.data
	w := 0
	for i := 0; i < f.n; i++ {
		j := (f.head + i) & (len(f.buf) - 1)
		tp := f.buf[j]
		p := n.arena.at(tp.ref)
		if keep(p) {
			f.buf[(f.head+w)&(len(f.buf)-1)] = tp
			w++
			continue
		}
		l.credit.push(timedCredit{at: n.Cycle + int64(l.Delay), flits: p.Size, vc: p.VC})
		n.strandPacket(tp.ref, p, int(l.dstShard))
	}
	f.n = w
}

// SanitizeInFlight strands (per the armed drop policy) every live packet
// for which keep returns false, given the router the packet currently
// occupies (for link traffic: the downstream router it is traveling
// toward). Fault-state routing calls this with the entered state's
// predicate after every churn batch, retiring packets whose cached scratch
// state is no longer realizable under the new component set. Returns the
// number of packets stranded.
func (n *Network) SanitizeInFlight(keep func(r *Router, p *Packet) bool) int {
	if n.churn == nil {
		return 0
	}
	stranded := n.strandInFlight(keep)
	if n.engineKind == EngineActiveSet {
		n.rebuildActive()
	}
	return stranded
}

// strandInFlight walks every live packet — alive routers' VC queues in
// router/port/VC order, then alive links' data FIFOs in link order — and
// strands those for which keep returns false (see SanitizeInFlight).
// keep may retarget the packet it keeps. Every VC's cached routing
// decisions are invalidated: the component set changed under them. A
// router still holding packets turns stale and re-routes them at its next
// pass; one that moved a packet in the previous cycle, or waits on credits
// or a dead link, has that pass this cycle. Route functions may read
// dynamic state on their first call, so when the re-route happens is part
// of the result.
func (n *Network) strandInFlight(keep func(r *Router, p *Packet) bool) int {
	cs := n.cyc
	if cs == nil {
		return 0 // no cycle state, no packets
	}
	stranded := 0
	for i := range n.Routers {
		r := &n.Routers[i]
		if !n.RouterAlive(r.ID) {
			continue
		}
		rc := &cs.routers[i]
		if rc.eventWait || rc.movedBy == n.Cycle {
			rc.nextAlloc = 0
		}
		shard := n.shardOfRouter(r.ID)
		for in := range rc.in {
			ip := &rc.in[in]
			for vc := range ip.vcs {
				q := &ip.vcs[vc]
				q.invalidate()
				for k := 0; k < q.size(); {
					ref := q.at(k)
					p := n.arena.at(ref)
					if keep(r, p) {
						k++
						continue
					}
					n.unqueuePacket(rc, in, vc, k, p)
					n.strandPacket(ref, p, shard)
					stranded++
				}
			}
		}
		rc.stale = rc.active > 0
	}
	for i := range cs.links {
		l := &cs.links[i]
		if !n.LinkAlive(l.ID) || l.data.n == 0 {
			continue
		}
		dst := &n.Routers[l.Dst]
		before := l.data.n
		n.filterLinkPackets(l, func(p *Packet) bool { return keep(dst, p) })
		stranded += before - l.data.n
	}
	return stranded
}

// rebuildShardLists reconstructs the per-shard injector walk and the
// reference engine's drain lists from current component liveness: routers
// ascending within each shard, links in index order. A no-op until
// ensureCycleState has built the lists (which it fills through here).
func (n *Network) rebuildShardLists() {
	cs := n.cyc
	if cs == nil {
		return
	}
	for s := range cs.injectors {
		lo, hi := engine.ShardBounds(len(n.Routers), n.shards, s)
		inj := cs.injectors[s][:0]
		for id := lo; id < hi; id++ {
			r := &n.Routers[id]
			if r.InjIn >= 0 && r.Chip >= 0 && n.RouterAlive(r.ID) {
				inj = append(inj, r.ID)
			}
		}
		cs.injectors[s] = inj
	}
	for s := range cs.dataLinks {
		cs.dataLinks[s] = cs.dataLinks[s][:0]
		cs.creditLinks[s] = cs.creditLinks[s][:0]
	}
	for i := range cs.links {
		l := &cs.links[i]
		if !n.LinkAlive(l.ID) {
			continue
		}
		cs.dataLinks[l.dstShard] = append(cs.dataLinks[l.dstShard], l)
		cs.creditLinks[l.srcShard] = append(cs.creditLinks[l.srcShard], l)
	}
}

// shardOfRouter returns the shard owning router id.
func (n *Network) shardOfRouter(id NodeID) int {
	for s := 0; s < n.shards; s++ {
		lo, hi := engine.ShardBounds(len(n.Routers), n.shards, s)
		if int(id) >= lo && int(id) < hi {
			return s
		}
	}
	return 0
}

// resetChurn restores the base fault state and re-arms the timeline from
// its first event. Called by Reset on armed networks, after the generic
// queue/statistics reset.
func (n *Network) resetChurn() {
	c, b := n.churn, n.faults
	b.toggledRouters = b.toggledRouters[:0]
	b.toggledLinks = b.toggledLinks[:0]
	for i := range n.Routers {
		if b.routerDown.Has(i) != b.baseRouterDown.Has(i) {
			b.toggledRouters = append(b.toggledRouters, NodeID(i))
		}
	}
	for i := range n.Links {
		if b.linkDown.Has(i) != b.baseLinkDown.Has(i) {
			b.toggledLinks = append(b.toggledLinks, int32(i))
		}
	}
	b.routerDown.CopyFrom(&b.baseRouterDown)
	b.linkDown.CopyFrom(&b.baseLinkDown)
	clear(b.routerRefs)
	clear(b.linkRefs)
	n.rebuildChipNodes()
	n.rebuildShardLists()
	c.next = 0
	c.err = nil
	if fr := n.faultRoute; fr != nil {
		// Back to the base state: its routing is always kept and its traces
		// were never evicted, so nothing is rebuilt or re-traced.
		fr.toggle(b.toggledRouters, b.toggledLinks, len(n.Links))
		c.err = n.enterFaultState(false)
	}
	c.appliedAny = false
}
