// Package netsim is a cycle-accurate interconnection-network simulator.
//
// It models virtual-channel routers with credit-based flow control and
// virtual cut-through switching at packet granularity with flit-level buffer
// and bandwidth accounting, the standard compromise used by fast network
// simulators (the paper's CNSim works at the same abstraction level). Every
// structure is deterministic: same topology + same seed gives bit-identical
// results regardless of how many worker goroutines step the network.
//
// The package is topology-agnostic. Topology packages build the router/link
// graph through a Builder; routing packages provide a RouteFunc; traffic
// packages provide Generators. The core package wires them together.
//
// The package is declared deterministic: results feed figures, caches and
// the bitwise serial==parallel==cached equality contract, so sldfcheck
// flags map iteration, global RNG and wall-clock reads in non-test code.
//
//sldf:deterministic
package netsim

import "sldf/internal/engine"

// NodeID identifies a router in the network.
type NodeID = int32

// HopClass classifies a physical channel by medium, which determines its
// latency/energy characteristics (paper Table II).
type HopClass uint8

const (
	// HopOnChip is a network-on-chip hop inside one chiplet (~1 ns, 0.1 pJ/bit).
	HopOnChip HopClass = iota
	// HopShortReach is an on-wafer short-reach hop or an SR-LR conversion hop
	// (~5 ns, ~2 pJ/bit).
	HopShortReach
	// HopLongLocal is a long-reach intra-group cable hop (~150 ns, 20+ pJ/bit).
	HopLongLocal
	// HopGlobal is a long-reach inter-group (optical) hop (~150 ns+ToF, 20+ pJ/bit).
	HopGlobal
	// HopEject is the terminal ejection pseudo-hop; it carries no energy cost.
	HopEject
	// NumHopClasses is the number of hop classes.
	NumHopClasses
)

// String returns a short name for the hop class.
func (c HopClass) String() string {
	switch c {
	case HopOnChip:
		return "onchip"
	case HopShortReach:
		return "sr"
	case HopLongLocal:
		return "local"
	case HopGlobal:
		return "global"
	case HopEject:
		return "eject"
	}
	return "unknown"
}

// Packet is a network packet. A packet occupies Size flits of buffer space
// and serializes over a link in ceil(Size/width) cycles. Routing state
// (Phase, Aux, Aux2) is owned by the routing algorithm in use.
//
// Live packets reside in the network's arena (see PacketRef): queues and
// link pipelines address them by index, while RouteFuncs and the cycle
// engines work through stable *Packet handles into the arena's chunks.
type Packet struct {
	ID      uint64
	SrcChip int32 // injecting chip (terminal endpoint)
	DstChip int32 // destination chip
	SrcNode NodeID
	DstNode NodeID
	Size    int32

	CreatedAt   int64 // cycle the packet entered the source queue
	InjectedAt  int64 // cycle the packet left the source queue into the network
	DeliveredAt int64 // cycle the packet's tail left the ejection port

	// VC is the virtual channel the packet currently occupies.
	VC uint8
	// Phase is routing-algorithm state (e.g. which leg of Algorithm 1 the
	// packet is on). Its meaning is owned by the RouteFunc.
	Phase uint8
	// Aux and Aux2 are routing-algorithm scratch (e.g. the Valiant
	// intermediate W-group, or the chosen entry node).
	Aux  int32
	Aux2 int32

	// Hops counts traversed channels by class for energy accounting.
	Hops [NumHopClasses]uint16

	// TraceRNG, when non-nil, replaces the visited routers' RNG streams for
	// this packet's routing decisions. Cycle engines never set it — their
	// packets draw from the per-router streams. The flow
	// engine's phantom route traces set it to a stream derived from the
	// (source node, destination node) pair, which makes every trace a pure
	// function of the network state: independent of trace order, safe to run
	// concurrently, and reusable from the route-trace cache with bit-exact
	// results.
	TraceRNG *engine.RNG
}

// RouteRNG returns the stream a RouteFunc must draw from when making a
// randomized decision for p at router r of net: the packet's trace stream
// when set, otherwise the router's own stream. The router streams live in
// the cycle state, which the first Step or SetEngine to a cycle engine
// builds before any parallel phase; a draw never creates them, so a packet
// routed outside a cycle engine must carry a trace stream.
func (p *Packet) RouteRNG(net *Network, r *Router) *engine.RNG {
	if p.TraceRNG != nil {
		return p.TraceRNG
	}
	return &net.cyc.rng[r.ID]
}

// TotalHops returns the number of network hops taken (excluding ejection).
func (p *Packet) TotalHops() int {
	n := 0
	for c := HopClass(0); c < HopEject; c++ {
		n += int(p.Hops[c])
	}
	return n
}
