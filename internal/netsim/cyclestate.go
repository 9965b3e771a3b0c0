package netsim

import "sldf/internal/engine"

// ensureCycleState allocates the state only the cycle engines read, on the
// first Step or SetEngine to a cycle engine:
//
//   - every router's VC queues, ring windows and output credits;
//   - the reference engine's per-shard drain lists and the injector walk;
//   - the active-set engine's timing wheels and staging lists.
//
// Until then a network holds exactly what the flow solver reads, and the
// code that may run first — Reset, fault application, churn batches,
// FreeCredits — treats the missing state as empty. The state is derived
// from the current fault set, so it equals what Finalize followed by the
// same faults and churn batches would have left on an idle network.
func (n *Network) ensureCycleState() {
	if n.cycleState {
		return
	}
	n.cycleState = true
	// Pack each router's hot port state contiguously: all VC queues in one
	// slab, all credit counters in another, and every network VC's initial
	// ring window carved from a shared ref array. A queue that outgrows its
	// window migrates to a private ring (vcQueue.grow); the injection
	// pseudo-queue starts with no window at all since its depth is
	// load-dependent and unbounded.
	for i := range n.Routers {
		r := &n.Routers[i]
		nvc, netVCs, ncred := 0, 0, 0
		for in := range r.In {
			if l := r.In[in].Link; l != nil {
				nvc += int(l.VCs)
				netVCs += int(l.VCs)
			} else {
				nvc++ // injection pseudo-port: a single source queue
			}
		}
		for o := range r.Out {
			if l := r.Out[o].Link; l != nil {
				ncred += int(l.VCs)
			}
		}
		vcs := make([]vcQueue, nvc)
		rings := make([]PacketRef, netVCs*vcRingWindow)
		creds := make([]int32, ncred)
		vi, ri, ci := 0, 0, 0
		for in := range r.In {
			ip := &r.In[in]
			if ip.Link == nil {
				ip.VCs = vcs[vi : vi+1 : vi+1]
				vi++
				continue
			}
			k := int(ip.Link.VCs)
			ip.VCs = vcs[vi : vi+k : vi+k]
			vi += k
			for v := range ip.VCs {
				ip.VCs[v].buf = rings[ri : ri+vcRingWindow : ri+vcRingWindow]
				ri += vcRingWindow
			}
		}
		for o := range r.Out {
			op := &r.Out[o]
			if op.Link == nil {
				continue
			}
			k := int(op.Link.VCs)
			op.Credits = creds[ci : ci+k : ci+k]
			ci += k
			for v := range op.Credits {
				op.Credits[v] = op.Link.BufFlits
			}
		}
	}
	// Partition links by consumer shard for the phase-A drain.
	for i := range n.Links {
		l := &n.Links[i]
		l.dstShard = int32(n.shardOfRouter(l.Dst))
		l.srcShard = int32(n.shardOfRouter(l.Src))
	}
	n.dataLinks = make([][]*Link, n.shards)
	n.creditLinks = make([][]*Link, n.shards)
	n.injectors = make([][]NodeID, n.shards)
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
	n.active = make([]shardActive, n.shards)
	for s := range n.active {
		lo, hi := engine.ShardBounds(len(n.Routers), n.shards, s)
		n.active[s] = shardActive{
			lo:          lo,
			hi:          hi,
			routers:     engine.NewBitset(hi - lo),
			wheelMask:   int64(wheelSize - 1),
			wheelData:   make([][]*Link, wheelSize),
			wheelCredit: make([][]*Link, wheelSize),
			wheelRouter: make([][]NodeID, wheelSize),
			stageData:   make([][]*Link, n.shards),
			stageCredit: make([][]*Link, n.shards),
		}
	}
}
