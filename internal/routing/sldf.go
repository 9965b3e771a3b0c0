package routing

import (
	"fmt"

	"sldf/internal/engine"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// Port-node output port layout fixed by the topology builder: out 0 returns
// to the attach core, out 1 is the external (long-reach) link.
const (
	portOutToCore   = 0
	portOutExternal = 1
)

// SLDFRouter routes packets on a switch-less Dragonfly. Create one with
// NewSLDFRouter and install Func on the network.
type SLDFRouter struct {
	s      *topology.SLDF
	scheme Scheme
	mode   Mode
	vcMap  [6]uint8
	groups int
}

// NewSLDFRouter builds the routing function for the given scheme and mode.
//
// BaselineVC implements Algorithm 1 exactly: XY dimension-order routing
// inside every C-group and one fresh VC per C-group traversal. Deadlock
// freedom: the VC index strictly follows the leg order along any path, XY
// is acyclic within one (C-group, VC), and ejection sinks.
//
// ReducedVC merges the destination W-group's two traversals onto one VC
// (paper Sec. IV-B). Our realization of the up*/down* idea is geometric and
// requires topology.LayoutSouthNorth: global ports attach on row 0, local
// ports on the top row. Inside a merged-VC W-group, a packet entering from
// a global port moves along row 0 (X±), then straight up its exit column
// (Y+), crosses the local link, then moves along the top row (X±) and
// straight down (Y−) to its destination. The per-C-group channel classes
// therefore form the chain  X(row 0) → Y+ → local → X(top row) → Y− →
// {eject | global-out}, which is acyclic, so no VC cycle can form.
// The cost is non-minimal intra-C-group paths — measured by the ablation
// benchmarks.
func NewSLDFRouter(s *topology.SLDF, scheme Scheme, mode Mode) (*SLDFRouter, error) {
	if err := validateMode(mode); err != nil {
		return nil, err
	}
	if scheme != BaselineVC && scheme != ReducedVC {
		return nil, fmt.Errorf("routing: unknown scheme %d", scheme)
	}
	if scheme == ReducedVC && s.Params.Layout != topology.LayoutSouthNorth {
		return nil, fmt.Errorf("routing: ReducedVC requires LayoutSouthNorth port placement")
	}
	if mode == ValiantLower && scheme != ReducedVC {
		return nil, fmt.Errorf("routing: ValiantLower is only meaningful with ReducedVC")
	}
	return &SLDFRouter{
		s:      s,
		scheme: scheme,
		mode:   mode,
		vcMap:  vcMapFor(scheme, mode),
		groups: s.Params.Groups(),
	}, nil
}

// VCs returns the number of virtual channels the router requires.
func (sr *SLDFRouter) VCs() uint8 { return SLDFVCCount(sr.scheme, sr.mode) }

// legOf returns the journey leg of packet p while buffered at router rr.
func (sr *SLDFRouter) legOf(net *netsim.Network, p *netsim.Packet, rr *netsim.Router) int {
	d := net.Router(p.DstNode)
	src := net.Router(p.SrcNode)
	wd, cd := d.WGroup, d.CGroup
	ws, cs := src.WGroup, src.CGroup
	w, c := rr.WGroup, rr.CGroup
	switch {
	case w == wd:
		if ws == wd && c == cs && c != cd {
			return legSrcC
		}
		if c == cd {
			return legDstC
		}
		return legDstEntry
	case w == ws:
		if c == cs {
			return legSrcC
		}
		return legSrcWMid
	default:
		// Intermediate W-group (Valiant); the packet landed where the
		// direct channel from the source W-group terminates.
		if int32(sr.s.EntryCGroup(int(ws), int(w))) == c {
			return legIntEntry
		}
		return legIntExit
	}
}

// vcAt returns the VC for packet p buffered at router rr.
func (sr *SLDFRouter) vcAt(net *netsim.Network, p *netsim.Packet, rr *netsim.Router) uint8 {
	return sr.vcMap[sr.legOf(net, p, rr)]
}

// exitPort resolves which external port the packet must leave the current
// C-group (w, c) through, or nil if the destination is inside it.
func (sr *SLDFRouter) exitPort(net *netsim.Network, p *netsim.Packet, w, c int32) *topology.PortInfo {
	d := net.Router(p.DstNode)
	wd, cd := d.WGroup, d.CGroup
	if w == wd {
		if c == cd {
			return nil
		}
		return &sr.s.CGroups[w][c].LocalPorts[cd]
	}
	wt := wd
	if p.Aux >= 0 && w != p.Aux {
		wt = p.Aux
	}
	cb, j := sr.s.GlobalChannelOwner(int(w), int(wt))
	if int32(cb) == c {
		return &sr.s.CGroups[w][c].GlobalPorts[j]
	}
	return &sr.s.CGroups[w][c].LocalPorts[cb]
}

// Install sets the routing function on the network.
func (sr *SLDFRouter) Install(net *netsim.Network) { net.SetRoute(sr.Func()) }

// Func returns the netsim routing function.
func (sr *SLDFRouter) Func() netsim.RouteFunc {
	return func(net *netsim.Network, r *netsim.Router, p *netsim.Packet) (int, uint8) {
		if r.Kind == netsim.KindPort {
			return sr.routeAtPort(net, r, p)
		}
		return sr.routeAtCore(net, r, p)
	}
}

func (sr *SLDFRouter) routeAtPort(net *netsim.Network, r *netsim.Router, p *netsim.Packet) (int, uint8) {
	exit := sr.exitPort(net, p, r.WGroup, r.CGroup)
	if exit != nil && exit.Node == r.ID {
		// This port owns the packet's outgoing channel: go external. The
		// packet is buffered next at the remote port node.
		remote := net.Router(net.OutPorts(r)[portOutExternal].Dst)
		return portOutExternal, sr.vcAt(net, p, remote)
	}
	// The packet entered the C-group here: descend to the attach core.
	return portOutToCore, sr.vcAt(net, p, r)
}

func (sr *SLDFRouter) routeAtCore(net *netsim.Network, r *netsim.Router, p *netsim.Packet) (int, uint8) {
	// Non-minimal modes pick the intermediate W-group once, at the source
	// core. ValiantLower only considers intermediates below the destination
	// index (and falls back to minimal when none exists).
	if p.Aux < 0 && p.Aux2 < 0 && sr.mode != Minimal && sr.groups > 2 {
		d := net.Router(p.DstNode)
		if d.WGroup != r.WGroup {
			p.Aux = sr.pickIntermediate(p.RouteRNG(net, r), r.WGroup, d.WGroup)
			p.Aux2 = 1 // decision made (possibly "no valid intermediate")
		}
	}

	exit := sr.exitPort(net, p, r.WGroup, r.CGroup)
	if exit == nil {
		// Destination C-group.
		if r.ID == p.DstNode {
			return int(r.EjectOut), 0
		}
		d := net.Router(p.DstNode)
		return sr.meshStep(net, r, p, int(d.X), int(d.Y)), sr.vcAt(net, p, r)
	}
	if r.ID == exit.AttachCore {
		// Hand the packet to the conversion module; it is buffered at the
		// port node, same C-group, same leg.
		return exit.CoreToPort, sr.vcAt(net, p, r)
	}
	a := net.Router(exit.AttachCore)
	return sr.meshStep(net, r, p, int(a.X), int(a.Y)), sr.vcAt(net, p, r)
}

// pickIntermediate chooses a uniform intermediate W-group for non-minimal
// routing, or -1 when none is admissible.
func (sr *SLDFRouter) pickIntermediate(rng *engine.RNG, ws, wd int32) int32 {
	if sr.mode == ValiantLower {
		// Candidates: w < wd, w != ws.
		n := wd
		if ws < wd {
			n--
		}
		if n <= 0 {
			return -1
		}
		aux := int32(rng.Intn(int(n)))
		if ws < wd && aux >= ws {
			aux++
		}
		return aux
	}
	for {
		aux := int32(rng.Intn(sr.groups))
		if aux != ws && aux != wd {
			return aux
		}
	}
}

// meshStep picks the mesh direction toward (tx, ty) according to the
// scheme's intra-C-group discipline for the packet's current leg.
func (sr *SLDFRouter) meshStep(net *netsim.Network, r *netsim.Router, p *netsim.Packet, tx, ty int) int {
	dp := &sr.s.DirPort[r.ID]
	x, y := int(r.X), int(r.Y)

	if sr.scheme == ReducedVC {
		leg := sr.legOf(net, p, r)
		switch leg {
		case legDstEntry, legIntEntry:
			// Entered on row 0 via a global port: row 0 X± first, then Y+.
			if y == 0 && x != tx {
				return dirTo(dp, x, tx)
			}
			return int(dp[topology.DirNorth])
		case legDstC, legIntExit:
			// Entered on the top row via a local port — unless this is the
			// source C-group of intra-W traffic handled below, or the
			// destination row itself.
			my := sr.s.Params.MeshY()
			if y == my-1 && x != tx {
				return dirTo(dp, x, tx)
			}
			if x != tx {
				// Off the transit row with a wrong column only happens for
				// packets that started in this C-group (leg mislabel is
				// impossible; source-local traffic is legSrcC): fall back to
				// XY which is safe on a fresh VC.
				return dirTo(dp, x, tx)
			}
			if ty < y {
				return int(dp[topology.DirSouth])
			}
			return int(dp[topology.DirNorth])
		}
		// legSrcC / legSrcWMid: plain XY below.
	}

	// XY dimension-order.
	if x != tx {
		return dirTo(dp, x, tx)
	}
	if ty > y {
		return int(dp[topology.DirNorth])
	}
	return int(dp[topology.DirSouth])
}

// dirTo returns the east or west port toward tx.
func dirTo(dp *[4]int32, x, tx int) int {
	if tx > x {
		return int(dp[topology.DirEast])
	}
	return int(dp[topology.DirWest])
}
