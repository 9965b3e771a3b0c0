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
// list, reference counts tracking how many unrepaired deaths currently hold
// each component down, and snapshots of the build-time (post-static-fault)
// state that Reset restores.
type churnState struct {
	events []TimedFault
	next   int // first unapplied event
	policy DropPolicy

	// onApply runs serially after every applied event batch, after the
	// fault-state routing (if installed) has switched and sanitized. An
	// error aborts the run: it is surfaced by the next Run/RunUntil/Drain
	// call.
	onApply func(*Network) error
	err     error

	// routerRefs[id] counts unrepaired death events on router id; a link's
	// count sums explicit link deaths plus one per dead endpoint router.
	// Component disabled = base flag || refs > 0.
	routerRefs []int16
	linkRefs   []int16

	baseRouterDisabled []bool
	baseLinkDisabled   []bool
	baseChipNodes      [][]NodeID

	// scratch collects packets stranded while a batch's events are being
	// applied; they are disposed of (drop or retry) only after the chip
	// tables reflect the whole batch, so a retry can never target a router
	// that a later event of the same batch kills.
	scratch []strandedRef

	// toggledRouters/toggledLinks record the components that actually
	// flipped alive<->dead while the current batch (or Reset) applied;
	// fault-state routing folds them into the state key. appliedAny marks
	// that some batch has been applied since the last Reset (SetFaultRouting
	// refuses to install then).
	toggledRouters []NodeID
	toggledLinks   []int32
	appliedAny     bool
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

// ChurnErr returns the error (if any) raised by the churn apply hook.
func (n *Network) ChurnErr() error {
	if n.churn == nil {
		return nil
	}
	return n.churn.err
}

// ScheduleChurn arms a fault timeline on a freshly built (or reset)
// network. events are copied and canonically sorted; policy selects the
// stranded-packet treatment; onApply (optional) runs after every applied
// batch — the core layer uses it to refresh chip liveness. Fault-aware
// routing follows the timeline on its own when installed with
// SetFaultRouting.
//
// Must be called at cycle zero, after build-time faults: the current
// Disabled flags and chip tables are snapshotted as the base state that
// reference counting (and Reset) restores. An empty event list is valid
// and leaves simulation bitwise identical to an unarmed network.
func (n *Network) ScheduleChurn(events []TimedFault, policy DropPolicy, onApply func(*Network) error) error {
	if n.Cycle != 0 {
		return fmt.Errorf("netsim: ScheduleChurn at cycle %d; arm timelines before the first Step", n.Cycle)
	}
	for _, e := range events {
		if err := n.checkFault(e); err != nil {
			return err
		}
	}
	c := &churnState{
		events:     append([]TimedFault(nil), events...),
		policy:     policy,
		onApply:    onApply,
		routerRefs: make([]int16, len(n.Routers)),
		linkRefs:   make([]int16, len(n.Links)),
	}
	SortTimedFaults(c.events)
	c.baseRouterDisabled = make([]bool, len(n.Routers))
	for i := range n.Routers {
		c.baseRouterDisabled[i] = n.Routers[i].Disabled
	}
	c.baseLinkDisabled = make([]bool, len(n.Links))
	for i := range n.Links {
		c.baseLinkDisabled[i] = n.Links[i].Disabled
	}
	c.baseChipNodes = make([][]NodeID, len(n.ChipNodes))
	for i, nodes := range n.ChipNodes {
		c.baseChipNodes[i] = append([]NodeID(nil), nodes...)
	}
	n.churn = c
	return nil
}

func (n *Network) checkFault(e TimedFault) error {
	if e.Cycle < 0 {
		return fmt.Errorf("netsim: churn event at negative cycle %d", e.Cycle)
	}
	switch {
	case e.Router >= 0:
		if int(e.Router) >= len(n.Routers) {
			return fmt.Errorf("netsim: churn router %d out of range [0,%d)", e.Router, len(n.Routers))
		}
	case e.Link >= 0:
		if int(e.Link) >= len(n.Links) {
			return fmt.Errorf("netsim: churn link %d out of range [0,%d)", e.Link, len(n.Links))
		}
	default:
		return errors.New("netsim: churn event names neither a router nor a link")
	}
	return nil
}

// InjectChurn applies events immediately, at the current step boundary
// (between Steps, or before the first). The timeline must be armed — a
// zero-event ScheduleChurn is the way to enable pure programmatic churn.
// The canonical sort is applied to the batch; the apply hook runs once.
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
// routing, see SetFaultRouting) and runs the apply hook. Serial: called
// only between engine phases.
func (n *Network) applyChurnBatch(batch []TimedFault) {
	c := n.churn
	c.toggledRouters = c.toggledRouters[:0]
	c.toggledLinks = c.toggledLinks[:0]
	c.appliedAny = true
	for _, e := range batch {
		if e.Repair {
			n.repairOne(e)
		} else {
			n.killOne(e)
		}
	}
	if fr := n.faultRoute; fr != nil {
		fr.toggle(c.toggledRouters, c.toggledLinks, len(n.Links))
	}
	n.rebuildChipNodes()
	for _, s := range c.scratch {
		n.strandPacket(s.ref, n.arena.at(s.ref), int(s.shard))
	}
	c.scratch = c.scratch[:0]
	// Strand packets whose destination chip died; a packet whose exact
	// destination terminal died on a surviving chip is retargeted to a
	// deterministic sibling terminal.
	n.strandInFlight(func(_ *Router, p *Packet) bool {
		if !n.ChipAlive(p.DstChip) {
			return false
		}
		if n.Routers[p.DstNode].Disabled {
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
	if c.onApply != nil && c.err == nil {
		c.err = c.onApply(n)
	}
}

// killOne applies one death event: bump reference counts and, on an
// alive→dead transition, clear the component's queued traffic.
func (n *Network) killOne(e TimedFault) {
	c := n.churn
	if e.Router >= 0 {
		c.routerRefs[e.Router]++
		r := &n.Routers[e.Router]
		if r.Disabled {
			return // already down (base fault or earlier death)
		}
		r.Disabled = true
		c.toggledRouters = append(c.toggledRouters, e.Router)
		n.clearRouter(r)
		for p := range r.In {
			if l := r.In[p].Link; l != nil {
				c.linkRefs[l.ID]++
				n.killLink(l)
			}
		}
		for p := range r.Out {
			if l := r.Out[p].Link; l != nil {
				c.linkRefs[l.ID]++
				n.killLink(l)
			}
		}
		return
	}
	c.linkRefs[e.Link]++
	n.killLink(&n.Links[e.Link])
}

// killLink disables a link (idempotent) and drops its in-flight traffic.
func (n *Network) killLink(l *Link) {
	if l.Disabled {
		return
	}
	l.Disabled = true
	n.churn.toggledLinks = append(n.churn.toggledLinks, l.ID)
	for {
		ref, ok := l.data.popReady(1 << 62)
		if !ok {
			break
		}
		n.churn.scratch = append(n.churn.scratch, strandedRef{ref, l.dstShard})
	}
	l.credit.clear()
}

// clearRouter drops every packet queued in r (deferred to post-batch
// disposal) and zeroes its allocation state, as if freshly reset. No
// credits are returned: every link into a dying router dies with it, and
// repair rebuilds the credit books.
func (n *Network) clearRouter(r *Router) {
	shard := int32(n.shardOfRouter(r.ID))
	for in := range r.In {
		ip := &r.In[in]
		for vc := range ip.VCs {
			q := &ip.VCs[vc]
			for !q.empty() {
				ref := q.front()
				q.pop(n.arena.at(ref).Size)
				n.churn.scratch = append(n.churn.scratch, strandedRef{ref, shard})
			}
			q.clear()
		}
		ip.busyUntil = 0
		ip.occMask = 0
	}
	for o := range r.Out {
		op := &r.Out[o]
		op.busyUntil = 0
		op.rr = 0
	}
	for g := range r.granted {
		r.granted[g] = 0
	}
	r.active = 0
	r.occPorts = 0
	r.nextAlloc = 0
}

// repairOne applies one repair event: decrement reference counts and, on a
// dead→alive transition, restore the component to service with a coherent
// credit state.
func (n *Network) repairOne(e TimedFault) {
	c := n.churn
	if e.Router >= 0 {
		if c.routerRefs[e.Router] == 0 {
			return // unmatched repair: no-op
		}
		c.routerRefs[e.Router]--
		r := &n.Routers[e.Router]
		if c.routerRefs[e.Router] > 0 || c.baseRouterDisabled[e.Router] {
			return
		}
		r.Disabled = false
		c.toggledRouters = append(c.toggledRouters, e.Router)
		n.clearRouter(r) // queues are already empty; re-zeroes port state
		for p := range r.In {
			if l := r.In[p].Link; l != nil {
				if c.linkRefs[l.ID] > 0 {
					c.linkRefs[l.ID]--
				}
				n.maybeReviveLink(l)
			}
		}
		for p := range r.Out {
			if l := r.Out[p].Link; l != nil {
				if c.linkRefs[l.ID] > 0 {
					c.linkRefs[l.ID]--
				}
				n.maybeReviveLink(l)
			}
		}
		return
	}
	if c.linkRefs[e.Link] == 0 {
		return
	}
	c.linkRefs[e.Link]--
	n.maybeReviveLink(&n.Links[e.Link])
}

// maybeReviveLink re-enables l when nothing holds it down any more,
// restoring the upstream credit counters to the downstream buffer's actual
// free space (packets parked in the downstream VCs across the outage keep
// their claim).
func (n *Network) maybeReviveLink(l *Link) {
	c := n.churn
	if !l.Disabled || c.linkRefs[l.ID] > 0 || c.baseLinkDisabled[l.ID] {
		return
	}
	if n.Routers[l.Src].Disabled || n.Routers[l.Dst].Disabled {
		return
	}
	l.Disabled = false
	c.toggledLinks = append(c.toggledLinks, l.ID)
	l.data.clear()
	l.credit.clear()
	src := &n.Routers[l.Src]
	dst := &n.Routers[l.Dst]
	op := &src.Out[l.SrcPort]
	ip := &dst.In[l.DstPort]
	for vc := range op.Credits {
		occ := int32(0)
		if vc < len(ip.VCs) {
			occ = ip.VCs[vc].occ
		}
		op.Credits[vc] = l.BufFlits - occ
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
	if src.Disabled || src.InjIn < 0 {
		// The original terminal died: hand the retry to the chip's first
		// surviving terminal (deterministic choice).
		src = &n.Routers[n.ChipNodes[p.SrcChip][0]]
		p.SrcNode = src.ID
	}
	p.VC, p.Phase = 0, 0
	p.Aux, p.Aux2 = -1, -1
	ip := &src.In[src.InjIn]
	if ip.VCs[0].empty() {
		if ip.occMask == 0 {
			src.occPorts |= 1 << uint(src.InjIn)
		}
		ip.occMask |= 1
		src.active++
	}
	ip.VCs[0].push(ref, p.Size)
	src.nextAlloc = 0
	return true
}

// rebuildChipNodes refilters every chip's terminal table from the base
// snapshot against the current Disabled flags, keeping Local indices in
// sync with slice positions (DstSameIndex addressing).
func (n *Network) rebuildChipNodes() {
	c := n.churn
	for chip, base := range c.baseChipNodes {
		nodes := n.ChipNodes[chip][:0]
		if nodes == nil && len(base) > 0 {
			nodes = make([]NodeID, 0, len(base))
		}
		for _, id := range base {
			if !n.Routers[id].Disabled {
				nodes = append(nodes, id)
			}
		}
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

// unqueuePacket removes the k-th packet of queue (in, vc) on r, maintaining
// the occupancy bookkeeping and returning the freed buffer space upstream
// when the feeding link is alive.
func (n *Network) unqueuePacket(r *Router, ip *InPort, in, vc, k int, p *Packet) {
	q := &ip.VCs[vc]
	q.removeAt(k, p.Size)
	if q.empty() {
		ip.occMask &^= 1 << vc
		if ip.occMask == 0 {
			r.occPorts &^= 1 << uint(in)
		}
		r.active--
	}
	if l := ip.Link; l != nil && !l.Disabled {
		l.credit.push(timedCredit{at: n.Cycle + int64(l.Delay), flits: p.Size, vc: uint8(vc)})
	}
}

// filterLinkPackets keeps only the data-queue packets for which keep
// returns true, preserving order and delivery times; removed packets are
// stranded per policy with their buffer claim returned upstream (the
// downstream buffer was never charged for packets still on the wire, but
// the upstream output port's credit was).
func (n *Network) filterLinkPackets(l *Link, keep func(*Packet) bool) {
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
// keep may retarget the packet it keeps. Every VC's route cache is
// invalidated: the component set changed under it.
func (n *Network) strandInFlight(keep func(r *Router, p *Packet) bool) int {
	stranded := 0
	for i := range n.Routers {
		r := &n.Routers[i]
		if r.Disabled {
			continue
		}
		shard := n.shardOfRouter(r.ID)
		for in := range r.In {
			ip := &r.In[in]
			for vc := range ip.VCs {
				q := &ip.VCs[vc]
				for k := 0; k < q.size(); {
					ref := q.at(k)
					p := n.arena.at(ref)
					if keep(r, p) {
						k++
						continue
					}
					n.unqueuePacket(r, ip, in, vc, k, p)
					n.strandPacket(ref, p, shard)
					stranded++
				}
				q.routed = false
			}
		}
	}
	for i := range n.Links {
		l := &n.Links[i]
		if l.Disabled || l.data.n == 0 {
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
// reference engine's drain lists from the current Disabled flags: routers
// ascending within each shard, links in index order. A no-op until
// ensureCycleState has allocated the lists (which it fills through here).
func (n *Network) rebuildShardLists() {
	if !n.cycleState {
		return
	}
	for s := range n.injectors {
		lo, hi := engine.ShardBounds(len(n.Routers), n.shards, s)
		inj := n.injectors[s][:0]
		for id := lo; id < hi; id++ {
			r := &n.Routers[id]
			if r.InjIn >= 0 && r.Chip >= 0 && !r.Disabled {
				inj = append(inj, r.ID)
			}
		}
		n.injectors[s] = inj
	}
	for s := range n.dataLinks {
		n.dataLinks[s] = n.dataLinks[s][:0]
		n.creditLinks[s] = n.creditLinks[s][:0]
	}
	for i := range n.Links {
		l := &n.Links[i]
		if l.Disabled {
			continue
		}
		n.dataLinks[l.dstShard] = append(n.dataLinks[l.dstShard], l)
		n.creditLinks[l.srcShard] = append(n.creditLinks[l.srcShard], l)
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

// resetChurn restores the base (build-time) fault state and re-arms the
// timeline from its first event. Called by Reset on armed networks, after
// the generic queue/statistics reset.
func (n *Network) resetChurn() {
	c := n.churn
	c.toggledRouters = c.toggledRouters[:0]
	c.toggledLinks = c.toggledLinks[:0]
	for i := range n.Routers {
		if r := &n.Routers[i]; r.Disabled != c.baseRouterDisabled[i] {
			r.Disabled = c.baseRouterDisabled[i]
			c.toggledRouters = append(c.toggledRouters, r.ID)
		}
	}
	for i := range n.Links {
		if l := &n.Links[i]; l.Disabled != c.baseLinkDisabled[i] {
			l.Disabled = c.baseLinkDisabled[i]
			c.toggledLinks = append(c.toggledLinks, l.ID)
		}
	}
	for i := range c.routerRefs {
		c.routerRefs[i] = 0
	}
	for i := range c.linkRefs {
		c.linkRefs[i] = 0
	}
	for chip, base := range c.baseChipNodes {
		if len(base) == 0 {
			n.ChipNodes[chip] = nil
			continue
		}
		nodes := n.ChipNodes[chip][:0]
		if nodes == nil {
			nodes = make([]NodeID, 0, len(base))
		}
		nodes = append(nodes, base...)
		n.ChipNodes[chip] = nodes
		for idx, id := range nodes {
			n.Routers[id].Local = int32(idx)
		}
	}
	n.rebuildShardLists()
	c.next = 0
	c.err = nil
	if fr := n.faultRoute; fr != nil {
		// Back to the base state: its routing is always kept and its traces
		// were never evicted, so nothing is rebuilt or re-traced.
		fr.toggle(c.toggledRouters, c.toggledLinks, len(n.Links))
		c.err = n.enterFaultState(false)
	}
	c.appliedAny = false
}
