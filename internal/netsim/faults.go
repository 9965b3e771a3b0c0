package netsim

import (
	"errors"
	"fmt"
	"sort"
)

// ErrDeadChip is the sentinel matched (via errors.Is) by DeadChipError:
// a fault set would leave a terminal chip with no alive injection router,
// which the open-loop traffic model cannot represent.
var ErrDeadChip = errors.New("netsim: fault set kills every terminal of a chip")

// DeadChipError reports which chip a fault set fully disconnects from the
// terminal interface. Wraps ErrDeadChip.
type DeadChipError struct {
	Chip int32
}

// Error implements error.
func (e *DeadChipError) Error() string {
	return fmt.Sprintf("netsim: fault set disables every terminal router of chip %d", e.Chip)
}

// Unwrap makes errors.Is(err, ErrDeadChip) work.
func (e *DeadChipError) Unwrap() error { return ErrDeadChip }

// ApplyFaults permanently disables the given routers and links, modelling
// defective dies and broken cables on a freshly built network. It must be
// called before the first Step (the topology layer applies faults at build
// time). Disabling a router also disables every link incident to it.
//
// Disabled components are invisible to both cycle engines: a disabled
// router is removed from the injector walk and (never receiving traffic)
// never enters a shard's active bitmap; a disabled link is removed from the
// reference engine's drain lists and, carrying no flits or credits, is
// never parked on the active-set timing wheel. A chip whose terminal
// routers are all disabled yields a DeadChipError; a chip that keeps at
// least one alive terminal stays addressable, with its remaining nodes
// re-indexed. Reset preserves fault state.
//
// ApplyFaults only severs connectivity — it does not reroute a function
// installed with SetRoute. Install a fault-aware RouteFunc (see the routing
// package) or packets will be forwarded onto dead components; routing
// installed with SetFaultRouting is rebuilt for the new fault set.
func (n *Network) ApplyFaults(routers []NodeID, links []int32) error {
	dead, err := n.applyFaults(routers, links)
	if err != nil {
		return err
	}
	if len(dead) > 0 {
		return &DeadChipError{Chip: dead[0]}
	}
	return nil
}

// ApplyFaultsTolerant is ApplyFaults for degraded-operation studies: chips
// whose terminal routers are all disabled are dropped from the workload
// (their ChipNodes entry empties) instead of failing, and their IDs are
// returned. Traffic generators must not target a dead chip — wrap patterns
// with traffic.FilterDead (the core layer does this automatically).
func (n *Network) ApplyFaultsTolerant(routers []NodeID, links []int32) (deadChips []int32, err error) {
	return n.applyFaults(routers, links)
}

func (n *Network) applyFaults(routers []NodeID, links []int32) (deadChips []int32, err error) {
	if n.Cycle != 0 {
		return nil, fmt.Errorf("netsim: ApplyFaults after %d simulated cycles; faults are build-time only", n.Cycle)
	}
	// Build-time faults change connectivity wholesale; discard any cached
	// route traces up front (the mutation below is not transactional).
	n.flowInvalidateAll()
	for _, id := range routers {
		if id < 0 || int(id) >= len(n.Routers) {
			return nil, fmt.Errorf("netsim: fault router %d out of range [0,%d)", id, len(n.Routers))
		}
		n.Routers[id].Disabled = true
	}
	for _, id := range links {
		if id < 0 || int(id) >= len(n.Links) {
			return nil, fmt.Errorf("netsim: fault link %d out of range [0,%d)", id, len(n.Links))
		}
		n.Links[id].Disabled = true
	}
	// A dead router takes all its channels with it.
	for i := range n.Routers {
		r := &n.Routers[i]
		if !r.Disabled {
			continue
		}
		for p := range r.In {
			if l := r.In[p].Link; l != nil {
				l.Disabled = true
			}
		}
		for p := range r.Out {
			if l := r.Out[p].Link; l != nil {
				l.Disabled = true
			}
		}
	}

	// Rebuild the chip→node tables without disabled terminals. Local
	// indices must keep matching slice positions for DstSameIndex.
	for c := range n.ChipNodes {
		nodes := n.ChipNodes[c][:0]
		for _, id := range n.ChipNodes[c] {
			if !n.Routers[id].Disabled {
				nodes = append(nodes, id)
			}
		}
		if len(nodes) == 0 {
			deadChips = append(deadChips, int32(c))
			n.ChipNodes[c] = nil
			continue
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		n.ChipNodes[c] = nodes
		for idx, id := range nodes {
			n.Routers[id].Local = int32(idx)
		}
	}

	// Rebuild the per-shard injector walk (shared by both engines) and the
	// reference engine's drain lists, when a cycle engine has built them.
	n.rebuildShardLists()
	// Installed fault-state routing is rebuilt for the new fault set, which
	// becomes its base state.
	if fr := n.faultRoute; fr != nil {
		if err := n.SetFaultRouting(fr.build); err != nil {
			return deadChips, err
		}
	}
	return deadChips, nil
}

// ChipAlive reports whether chip c still has a terminal router.
func (n *Network) ChipAlive(c int32) bool {
	return c >= 0 && int(c) < len(n.ChipNodes) && len(n.ChipNodes[c]) > 0
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

// Faulted reports whether any router or link of the network is disabled.
func (n *Network) Faulted() bool {
	for i := range n.Routers {
		if n.Routers[i].Disabled {
			return true
		}
	}
	for _, l := range n.Links {
		if l.Disabled {
			return true
		}
	}
	return false
}

// DisabledCounts returns the number of disabled routers and links.
func (n *Network) DisabledCounts() (routers, links int) {
	for i := range n.Routers {
		if n.Routers[i].Disabled {
			routers++
		}
	}
	for _, l := range n.Links {
		if l.Disabled {
			links++
		}
	}
	return
}
