package netsim

import (
	"errors"
	"fmt"

	"sldf/internal/engine"
)

// faultBook is the network's component-fault bookkeeping, shared by
// build-time faults (ApplyFaults) and the churn timeline (ScheduleChurn,
// InjectChurn): both kill components through killOne, so there is one
// disable path and one rebuild of the derived tables. It is the only store
// of router and link liveness (read through RouterAlive and LinkAlive).
// Created by the first of those calls; nil on a network that was never
// faulted or armed, where every component is alive.
type faultBook struct {
	// routerDown/linkDown hold the components out of service now. Every
	// kill and revive goes through killOne and maybeReviveLink, so a link
	// is down whenever either endpoint router is.
	routerDown, linkDown engine.Bitset

	// routerRefs[id] counts unrepaired death events on router id; a link's
	// count sums explicit link deaths plus one per dead endpoint router.
	// Component down = down in the base || refs > 0.
	routerRefs []int16
	linkRefs   []int16

	// The base state: build-time faults included, never repaired, and
	// restored by Reset.
	baseRouterDown, baseLinkDown engine.Bitset
	baseChipNodes                [][]NodeID

	// alive[c] reports whether chip c keeps a terminal router. Allocated
	// with the book and updated in place by every rebuild of the chip
	// tables, so a pattern filtered against it (traffic.FilterDead) sees
	// deaths and repairs without re-wrapping.
	alive []bool

	// scratch collects packets stranded while a batch's events are being
	// applied; they are disposed of (drop or retry) only after the chip
	// tables reflect the whole batch, so a retry can never target a router
	// that a later event of the same batch kills.
	scratch []strandedRef

	// toggledRouters/toggledLinks record the components that actually
	// flipped alive<->dead while the current batch (or Reset) applied;
	// fault-state routing folds them into the state key.
	toggledRouters []NodeID
	toggledLinks   []int32
}

// book returns the network's fault book, creating it with the current
// state as base on first use.
func (n *Network) book() *faultBook {
	if n.faults == nil {
		n.faults = &faultBook{
			routerDown:     engine.NewBitset(len(n.Routers)),
			linkDown:       engine.NewBitset(len(n.Links)),
			routerRefs:     make([]int16, len(n.Routers)),
			linkRefs:       make([]int16, len(n.Links)),
			baseRouterDown: engine.NewBitset(len(n.Routers)),
			baseLinkDown:   engine.NewBitset(len(n.Links)),
			alive:          make([]bool, len(n.ChipNodes)),
		}
		for c := range n.faults.alive {
			n.faults.alive[c] = n.ChipAlive(int32(c))
		}
		n.commitBase()
	}
	return n.faults
}

// commitBase makes the current component state the base: the down sets
// and chip tables are snapshotted and the reference counts zeroed, so no
// repair revives what is down now and Reset returns here.
func (n *Network) commitBase() {
	b := n.faults
	b.baseRouterDown.CopyFrom(&b.routerDown)
	b.baseLinkDown.CopyFrom(&b.linkDown)
	b.baseChipNodes = make([][]NodeID, len(n.ChipNodes))
	for i, nodes := range n.ChipNodes {
		b.baseChipNodes[i] = append([]NodeID(nil), nodes...)
	}
	clear(b.routerRefs)
	clear(b.linkRefs)
}

// ApplyFaults permanently disables the given routers and links, modelling
// defective dies and broken cables. It must be called at cycle zero, before
// any churn event has applied; the whole set is validated first, so a
// rejected call changes nothing. The faults apply as one kill batch through
// the churn path — a dead router takes every incident link with it — and
// the resulting state becomes the base state that repairs never undo and
// Reset restores.
//
// Failed components are invisible to both cycle engines: a dead router is
// removed from the injector walk and never receives traffic; a dead link
// offers no bandwidth and is dropped from the drain lists. RouterAlive and
// LinkAlive report the state. A
// chip that keeps at least one alive terminal stays addressable, with its
// remaining nodes re-indexed; a chip that loses every terminal is dropped
// from the workload (its ChipNodes entry empties; see DeadChips and
// AliveChips). Traffic generators must not target a dead chip — wrap
// patterns with traffic.FilterDead over AliveChips (the core layer does
// this automatically).
//
// ApplyFaults only severs connectivity — it does not reroute a function
// installed with SetRoute. Install a fault-aware RouteFunc (see the routing
// package) or packets will wait forever at dead links; routing installed
// with SetFaultRouting is rebuilt for the new fault set.
func (n *Network) ApplyFaults(routers []NodeID, links []int32) error {
	if n.Cycle != 0 {
		return fmt.Errorf("netsim: ApplyFaults after %d simulated cycles; faults are build-time only", n.Cycle)
	}
	if n.churn != nil && n.churn.appliedAny {
		return errors.New("netsim: ApplyFaults on a network whose churn timeline has applied events; Reset first")
	}
	batch := make([]TimedFault, 0, len(routers)+len(links))
	for _, id := range routers {
		batch = append(batch, RouterFault(0, id, false))
	}
	for _, id := range links {
		batch = append(batch, LinkFault(0, id, false))
	}
	for _, e := range batch {
		if err := n.checkFault(e); err != nil {
			return err
		}
	}
	n.flowInvalidateAll()
	n.book()
	// At cycle zero the network holds no packets, so the batch strands
	// nothing and no active set needs rebuilding.
	for _, e := range batch {
		n.killOne(e)
	}
	n.rebuildChipNodes()
	n.rebuildShardLists()
	n.commitBase()
	// Installed fault-state routing is rebuilt for the new fault set, which
	// becomes its base state.
	if fr := n.faultRoute; fr != nil {
		return n.SetFaultRouting(fr.build)
	}
	return nil
}

// ChipAlive reports whether chip c still has a terminal router.
func (n *Network) ChipAlive(c int32) bool {
	return c >= 0 && int(c) < len(n.ChipNodes) && len(n.ChipNodes[c]) > 0
}

// AliveChips returns the chip liveness table: entry c is true while chip c
// keeps a terminal router. The network owns the table and updates it in
// place at every fault batch and Reset, so callers may hold it across a
// run. It is nil on a network that was never faulted or armed with a churn
// timeline, where every chip is alive.
func (n *Network) AliveChips() []bool {
	if n.faults == nil {
		return nil
	}
	return n.faults.alive
}

// DeadChips lists the chips with no surviving terminal router.
func (n *Network) DeadChips() []int32 {
	var dead []int32
	for c := range n.ChipNodes {
		if len(n.ChipNodes[c]) == 0 {
			dead = append(dead, int32(c))
		}
	}
	return dead
}

// RouterAlive reports whether router id is in service. It is true on a
// network that was never faulted or armed.
func (n *Network) RouterAlive(id NodeID) bool {
	return n.faults == nil || !n.faults.routerDown.Has(int(id))
}

// LinkAlive reports whether link id is in service; a link whose endpoint
// router is down is down too. It is true on a never-faulted network.
func (n *Network) LinkAlive(id int32) bool {
	return n.faults == nil || !n.faults.linkDown.Has(int(id))
}

// DisabledCounts returns the number of routers and links out of service.
func (n *Network) DisabledCounts() (routers, links int) {
	if n.faults == nil {
		return 0, 0
	}
	return n.faults.routerDown.Count(), n.faults.linkDown.Count()
}
