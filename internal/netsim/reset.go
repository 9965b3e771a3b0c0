package netsim

import "sldf/internal/engine"

// Reset restores the network to its just-finalized state: cycle zero, empty
// router queues and link pipelines, full credit buffers, per-router RNG
// streams re-derived from the seed, and all statistics cleared. The
// installed routing function, pre-allocate hook and worker pool are kept,
// while the traffic generator is removed (as after Finalize). A reset
// network behaves bitwise identically to a freshly built one, which lets a
// sweep reuse one construction for every load point of a series. Packets
// still in flight are discarded; per-shard free lists are kept so their
// buffers are recycled.
func (n *Network) Reset() {
	for i := range n.Routers {
		r := &n.Routers[i]
		for in := range r.In {
			ip := &r.In[in]
			ip.busyUntil = 0
			ip.occMask = 0
			for vc := range ip.VCs {
				ip.VCs[vc].clear()
			}
		}
		for o := range r.Out {
			op := &r.Out[o]
			op.busyUntil = 0
			op.rr = 0
			if op.Link != nil {
				for vc := range op.Credits {
					op.Credits[vc] = op.Link.BufFlits
				}
			}
		}
		r.resetAllocState()
		r.RNG = engine.NewRNGStream(n.seed, uint64(i))
	}
	for i := range n.Links {
		// Keep the ring buffers' capacity so a reset network reaches its
		// steady state without re-growing them.
		l := &n.Links[i]
		l.data.clear()
		l.credit.clear()
		l.winFlits = 0
		l.dataActive = false
		l.creditActive = false
	}
	for s := range n.shard {
		free := n.shard[s].free
		n.shard[s] = shardStats{free: free}
	}
	// Rebuild the free lists from the whole arena: dropping in-flight packets
	// above released their queue slots without returning their refs, and
	// reclaim puts every slot back in circulation (reusing list capacity, so
	// steady-state resets allocate nothing).
	n.arena.reclaim(n.shard)
	for s := range n.active {
		n.active[s].clear()
	}
	n.Cycle = 0
	n.gen = nil
	n.genBern = nil
	n.measuring = false
	n.measStart = 0
	n.measEnd = 0
	n.idleCycles = 0
	n.watchdogTrips = 0
	// An armed fault timeline rewinds with the network: the build-time
	// fault state is restored and the event cursor returns to the first
	// event, so a reset mid-churn network is bitwise identical to a fresh
	// build with the same timeline.
	if n.churn != nil {
		n.resetChurn()
	}
}

// clear empties the VC queue and invalidates its cached routing decisions,
// dropping any packet refs it still holds. The ring keeps its backing slice
// (refs are integers; nothing is retained for the GC).
func (v *vcQueue) clear() {
	v.head = 0
	v.n = 0
	v.occ = 0
	v.invalidate()
}

// resetAllocState returns r's occupancy, sleep and grant bookkeeping to
// that of an idle router; its queues must already be empty.
func (r *Router) resetAllocState() {
	r.active = 0
	r.occPorts = 0
	r.nextAlloc = 0
	r.creditWait = 0
	r.eventWait = false
	r.stale = false
	r.movedBy = 0
	if r.ideal != nil {
		// Grant epochs restart with the cycle counter: zero every slot so
		// a stale pre-reset epoch can never collide with a fresh now+1.
		clear(r.ideal.granted)
	}
}
