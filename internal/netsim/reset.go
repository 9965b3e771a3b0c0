package netsim

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
	if n.cyc != nil {
		n.cyc.reset(n.seed)
	}
	if n.flow != nil {
		n.flow.accum.published = false
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

// idle empties the router's queues (dropping any refs they hold) and
// returns its port, occupancy, sleep and grant bookkeeping to that of an
// idle router. Credits are left to the caller.
func (rc *routerCycle) idle() {
	for in := range rc.in {
		ip := &rc.in[in]
		ip.busyUntil = 0
		ip.occMask = 0
		for vc := range ip.vcs {
			ip.vcs[vc].clear()
		}
	}
	for o := range rc.out {
		rc.out[o].busyUntil = 0
		rc.out[o].rr = 0
	}
	rc.active = 0
	rc.occPorts = 0
	rc.nextAlloc = 0
	rc.creditWait = 0
	rc.eventWait = false
	rc.stale = false
	rc.movedBy = 0
	if rc.ideal != nil {
		// Grant epochs restart with the cycle counter: zero every slot so
		// a stale pre-reset epoch can never collide with a fresh now+1.
		clear(rc.ideal.granted)
	}
}
