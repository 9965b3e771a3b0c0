package netsim

import "sldf/internal/engine"

// EngineKind selects the cycle-engine implementation.
type EngineKind uint8

const (
	// EngineActiveSet is the default engine: each shard keeps worklists of
	// routers with occupied VCs and links with in-flight flits or credits,
	// so a cycle's drain/allocate phases touch only components that can
	// make progress. At low injection rates — where most of a sweep's
	// points live — the vast majority of routers and links are quiescent
	// and are skipped entirely.
	EngineActiveSet EngineKind = iota
	// EngineReference is the full-scan serial-reference engine: every
	// cycle walks every router and link. It exists to cross-check the
	// active-set engine — both produce bitwise-identical statistics.
	EngineReference
	// EngineFlow is the flow-level analytical engine: instead of stepping
	// packets per cycle it solves per-link steady-state load from a sampled
	// traffic matrix and the installed routing function (iterative
	// waterfilling over link capacities), then synthesizes the same Stats
	// surface with a queueing-theoretic latency approximation. It is
	// approximate — validated against the cycle engines with documented
	// error bounds, not bitwise identity — and exists for campaign points
	// far past the cycle engines' scale ceiling. Networks under EngineFlow
	// are driven through SolveFlow/FlowMakespan, never Step.
	EngineFlow
)

// String names the engine kind.
func (k EngineKind) String() string {
	switch k {
	case EngineActiveSet:
		return "active-set"
	case EngineReference:
		return "reference"
	case EngineFlow:
		return "flow"
	}
	return "unknown"
}

// shardActive is one shard's active-set state. It is owned by its shard:
// the router bitmap and the link worklists are only touched by the owning
// shard, while the staging lists are written by this shard as a producer
// during allocate and consumed (and truncated) by the destination shard
// during the next drain — phases a pool barrier keeps apart.
type shardActive struct {
	lo, hi int // router ID range [lo, hi) of this shard

	// routers holds bit i when router lo+i has at least one occupied VC.
	// Routers are enqueued on activation (flit arrival, credit return,
	// injection) and lazily retired by the allocate walk once drained.
	// Bitmap iteration is always ascending, matching the reference
	// engine's router order, so results are bit-identical.
	routers engine.Bitset

	// The timing wheel: active links and sleeping routers are parked in
	// the slot of the cycle they next have work (earliest deliverable
	// flit/credit, or the router's nextAlloc wake-up), so quiescent AND
	// merely-waiting components cost nothing per cycle. Slot index is
	// cycle&wheelMask; the wheel is sized past the longest link delay, so
	// a pending wake never wraps onto an earlier one. Routers sleeping
	// beyond the horizon (rare: serialization of a giant packet) simply
	// stay on the bitmap and poll.
	wheelMask   int64
	wheelData   [][]*Link
	wheelCredit [][]*Link
	wheelRouter [][]NodeID

	// stageData/stageCredit[t] collect links this shard activated as a
	// producer during allocate, destined for consumer shard t. Shard t
	// merges (and empties) them into its wheel at the start of the next
	// drain phase.
	stageData   [][]*Link
	stageCredit [][]*Link
}

// stageDataLink marks l's data queue active and stages it for its consumer
// shard. Called from the allocate phase of l's producer (source) shard.
func (a *shardActive) stageDataLink(l *Link) {
	if !l.dataActive {
		l.dataActive = true
		a.stageData[l.dstShard] = append(a.stageData[l.dstShard], l)
	}
}

// stageCreditLink is stageDataLink for the credit queue (produced by the
// destination router's shard, consumed by the source router's shard).
func (a *shardActive) stageCreditLink(l *Link) {
	if !l.creditActive {
		l.creditActive = true
		a.stageCredit[l.srcShard] = append(a.stageCredit[l.srcShard], l)
	}
}

// scheduleData parks l in the data wheel for cycle at (at must be at most
// wheelMask cycles ahead, which link delays guarantee).
func (a *shardActive) scheduleData(l *Link, at int64) {
	slot := at & a.wheelMask
	a.wheelData[slot] = append(a.wheelData[slot], l)
}

// scheduleCredit parks l in the credit wheel for cycle at.
func (a *shardActive) scheduleCredit(l *Link, at int64) {
	slot := at & a.wheelMask
	a.wheelCredit[slot] = append(a.wheelCredit[slot], l)
}

// clear empties all dynamic active-set state (wheel, staging, bitmap) and
// resets the link membership flags of entries still parked.
func (a *shardActive) clear() {
	for slot := range a.wheelData {
		for _, l := range a.wheelData[slot] {
			l.dataActive = false
		}
		a.wheelData[slot] = a.wheelData[slot][:0]
		for _, l := range a.wheelCredit[slot] {
			l.creditActive = false
		}
		a.wheelCredit[slot] = a.wheelCredit[slot][:0]
		a.wheelRouter[slot] = a.wheelRouter[slot][:0]
	}
	for t := range a.stageData {
		for _, l := range a.stageData[t] {
			l.dataActive = false
		}
		a.stageData[t] = a.stageData[t][:0]
		for _, l := range a.stageCredit[t] {
			l.creditActive = false
		}
		a.stageCredit[t] = a.stageCredit[t][:0]
	}
	a.routers.Clear()
}

// Engine returns the cycle engine currently in use.
func (n *Network) Engine() EngineKind { return n.engineKind }

// SetEngine switches the cycle engine. Safe at any phase boundary (between
// Step calls): switching to the active-set engine rebuilds the active sets
// from the network's current contents, so in-flight traffic keeps moving.
// Selecting a cycle engine allocates the cycle state a flow-only network
// lacks.
func (n *Network) SetEngine(k EngineKind) {
	if k != EngineFlow {
		n.ensureCycleState()
	}
	if n.engineKind == k {
		return
	}
	n.engineKind = k
	if k == EngineActiveSet {
		n.rebuildActive()
	}
}

// rebuildActive reconstructs every shard's active sets from a full scan of
// the network: routers with occupied VCs and links with queued data or
// credits (parked at their earliest delivery cycle, clamped to the next
// step). Used when switching engines and after Reset.
func (n *Network) rebuildActive() {
	for s := range n.active {
		a := &n.active[s]
		a.clear()
		for id := a.lo; id < a.hi; id++ {
			if n.Routers[id].active > 0 {
				a.routers.Add(id - a.lo)
			}
		}
	}
	for i := range n.Links {
		l := &n.Links[i]
		if l.data.n > 0 {
			l.dataActive = true
			n.active[l.dstShard].scheduleData(l, max(l.data.frontAt(), n.Cycle))
		}
		if l.credit.n > 0 {
			l.creditActive = true
			n.active[l.srcShard].scheduleCredit(l, max(l.credit.frontAt(), n.Cycle))
		}
	}
}

// mergeActivations parks the links every producer shard staged for shard s
// during the previous allocate phase into s's timing wheel, at each link's
// earliest delivery cycle. Runs at the start of s's drain phase; the phase
// barrier guarantees no producer is writing the staging cells, and a staged
// link's earliest delivery is never in the past (data arrives after at
// least Delay+1 >= 2 cycles, credits after Delay >= 1).
func (n *Network) mergeActivations(s int) {
	a := &n.active[s]
	for p := range n.active {
		ps := &n.active[p]
		for _, l := range ps.stageData[s] {
			a.scheduleData(l, l.data.frontAt())
		}
		ps.stageData[s] = ps.stageData[s][:0]
		for _, l := range ps.stageCredit[s] {
			a.scheduleCredit(l, l.credit.frontAt())
		}
		ps.stageCredit[s] = ps.stageCredit[s][:0]
	}
}

// drainShardActive is the active-set phase A for shard s: it visits only
// the links whose wheel slot fired this cycle — exactly those with a
// deliverable flit or credit — delivering into router VC buffers and
// returning credits, and enqueues the touched routers on the shard's
// active set. A link with more queued traffic is re-parked at its next
// delivery cycle; an emptied link is released to its producer to re-stage.
func (n *Network) drainShardActive(s int, now int64) {
	a := &n.active[s]
	slot := now & a.wheelMask
	data := a.wheelData[slot]
	a.wheelData[slot] = data[:0]
	for _, l := range data {
		n.drainDataLink(l, now, a)
		if l.data.n == 0 {
			l.dataActive = false
		} else {
			a.scheduleData(l, l.data.frontAt())
		}
	}

	credit := a.wheelCredit[slot]
	a.wheelCredit[slot] = credit[:0]
	for _, l := range credit {
		if n.drainCreditLink(l, now) {
			// A credit alone cannot create work for an empty router; only
			// wake it when it still holds packets to send.
			if src := &n.Routers[l.Src]; src.active > 0 {
				a.routers.Add(int(l.Src) - a.lo)
			}
		}
		if l.credit.n == 0 {
			l.creditActive = false
		} else {
			a.scheduleCredit(l, l.credit.frontAt())
		}
	}
}

// allocShardActive is the active-set phase B for shard s: wake routers
// whose sleep expired this cycle, inject into the shard's terminal
// routers, then run routing/switch allocation for only the routers on the
// active set. Routers that drained are retired; routers sleeping on a
// known serialization wake-up are parked in the wheel instead of polling.
func (n *Network) allocShardActive(s int, now int64) {
	a := &n.active[s]
	slot := now & a.wheelMask
	for _, id := range a.wheelRouter[slot] {
		// An earlier event may have woken (and re-parked) the router
		// already; the bitmap Add is idempotent and a spurious wake-up is
		// a cheap no-op allocate.
		a.routers.Add(int(id) - a.lo)
	}
	a.wheelRouter[slot] = a.wheelRouter[slot][:0]
	n.generate(s, now, a)
	moved := 0
	horizon := a.wheelMask // safe park distance: strictly less than wheel size
	a.routers.ForEach(func(i int) {
		r := &n.Routers[a.lo+i]
		moved += r.allocate(n, now, s, a)
		if r.active == 0 {
			a.routers.Remove(i)
		} else if w := r.nextAlloc; w > now {
			if w-now <= horizon {
				a.routers.Remove(i)
				ws := w & a.wheelMask
				a.wheelRouter[ws] = append(a.wheelRouter[ws], NodeID(a.lo+i))
			}
			// Beyond the horizon: stay on the bitmap and poll (allocate
			// early-outs until the wake-up).
		}
	})
	n.shard[s].moved = int64(moved)
}
