package routing

import (
	"fmt"

	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// FaultMeshRouter is fault-aware routing for a standalone C-group mesh,
// exposing the mid-run sanitize predicate alongside the routing function.
type FaultMeshRouter struct {
	local []int32
	rg    *region
}

// NewFaultMeshRouter builds fault-aware routing for a standalone C-group
// mesh with disabled components: shortest up*/down* paths over the
// surviving routers on a single virtual channel (XY dimension order does
// not survive holes). Construction fails with PartitionError when some
// pair of alive routers is disconnected.
//
// Per-packet scratch: Aux2 is -1 until first touch, then bit 1 tracks the
// up*/down* descending phase.
func NewFaultMeshRouter(g *topology.MeshCGroup) (*FaultMeshRouter, error) {
	local := make([]int32, len(g.Net.Routers))
	for i := range local {
		local[i] = -1
	}
	var ids []netsim.NodeID
	for i := range g.Net.Routers {
		if id := g.Net.Routers[i].ID; g.Net.RouterAlive(id) {
			ids = append(ids, id)
		}
	}
	rg, ok := buildRegion(g.Net, ids, local)
	if !ok {
		return nil, &PartitionError{Where: "mesh"}
	}
	return &FaultMeshRouter{local: local, rg: rg}, nil
}

// Func returns the netsim routing function.
func (fm *FaultMeshRouter) Func() netsim.RouteFunc {
	local, rg := fm.local, fm.rg
	return func(net *netsim.Network, r *netsim.Router, p *netsim.Packet) (int, uint8) {
		if r.ID == p.DstNode {
			return int(r.EjectOut), 0
		}
		if p.Aux2 < 0 {
			p.Aux2 = 1
		}
		out, descending := rg.step(local[r.ID], local[p.DstNode], p.Aux2&2 != 0)
		if descending && p.Aux2&2 == 0 {
			p.Aux2 |= 2
		}
		return int(out), 0
	}
}

// Sanitize returns the keep-predicate for netsim.SanitizeInFlight after a
// mid-run recompute: a packet already in the descending up*/down* phase
// whose new tables offer no legal descending path to its destination is
// retired (continuing it would need a forbidden down→up transition).
func (fm *FaultMeshRouter) Sanitize() func(r *netsim.Router, p *netsim.Packet) bool {
	local, rg := fm.local, fm.rg
	return func(r *netsim.Router, p *netsim.Packet) bool {
		if r.ID == p.DstNode {
			return true
		}
		lu, lt := local[r.ID], local[p.DstNode]
		if lu < 0 || lt < 0 {
			return false
		}
		out, _ := rg.step(lu, lt, p.Aux2 >= 0 && p.Aux2&2 != 0)
		return out >= 0
	}
}

// NewFaultSwitchRoute validates a single-switch system against its fault
// set. The topology has no redundancy — every router and link is a single
// point of failure — so any disabled component that a chip depends on is a
// partition. The returned routing function is the pristine one.
func NewFaultSwitchRoute(s *topology.SingleSwitch) (netsim.RouteFunc, error) {
	if !s.Net.RouterAlive(s.Switch) {
		return nil, &PartitionError{Where: "switch"}
	}
	for c, nic := range s.NICs {
		if !s.Net.ChipAlive(int32(c)) {
			continue // the chip dropped out of the workload entirely
		}
		// A dead NIC takes its uplink down with it.
		up := s.Net.OutPorts(s.Net.Router(nic))[s.UplinkPort[c]].Link
		down := s.Net.OutPorts(s.Net.Router(s.Switch))[s.DownPort[c]].Link
		if !s.Net.LinkAlive(up) || !s.Net.LinkAlive(down) {
			return nil, &PartitionError{Where: fmt.Sprintf("chip %d terminal", c)}
		}
	}
	return s.Route(), nil
}

// FaultDragonflyRoute routes packets on a switch-based Dragonfly with
// disabled components: shortest paths on the switch graph (alive local and
// global channels), so a dead cable is detoured through a third switch or
// group. The virtual channel of every hop is the packet's switch-graph
// hop index — derived from the distance tables, not per-packet state, so
// it is safe for the ideal switches' repeated lookahead route calls — and
// strictly increases along any path, keeping the channel dependency graph
// acyclic.
//
// Only minimal routing is supported: Valiant's intermediate-group state
// cannot be updated race-free on ideal switches. Construction fails with
// PartitionError when the surviving switch graph disconnects some pair or
// a chip loses its terminal channels, and with DegradedVCError when the
// degraded diameter needs more VCs than the links provision.
type FaultDragonflyRouter struct {
	df   *topology.Dragonfly
	a    int32
	n    int32   // switches
	next []int16 // [u*n+d] out port toward d, -1 on the diagonal
	dist []int16 // [u*n+d] switch-graph distance
	vcs  uint8
}

// NewFaultDragonflyRoute builds the fault-aware minimal router.
func NewFaultDragonflyRoute(df *topology.Dragonfly, mode Mode) (*FaultDragonflyRouter, error) {
	if mode != Minimal {
		return nil, fmt.Errorf("routing: fault-aware dragonfly routing supports only minimal mode (got %s)", mode)
	}
	g := int32(df.Params.Groups())
	a := int32(df.Params.A)
	n := g * a
	fd := &FaultDragonflyRouter{
		df:   df,
		a:    a,
		n:    n,
		next: make([]int16, n*n),
		dist: make([]int16, n*n),
	}

	// Switch index ↔ router lookup and terminal-channel validation.
	swIndex := make([]int32, len(df.Net.Routers))
	for i := range swIndex {
		swIndex[i] = -1
	}
	for w := int32(0); w < g; w++ {
		for s := int32(0); s < a; s++ {
			id := df.Switches[w][s]
			if !df.Net.RouterAlive(id) {
				return nil, &PartitionError{Where: fmt.Sprintf("switch (%d,%d)", w, s)}
			}
			swIndex[id] = w*a + s
		}
	}
	for chip, nic := range df.NICs {
		if !df.Net.ChipAlive(int32(chip)) {
			continue // the chip dropped out of the workload entirely
		}
		// A dead NIC takes its uplink down with it.
		w, s, t := df.Params.ChipLocation(int32(chip))
		up := df.Net.OutPorts(df.Net.Router(nic))[df.NICUplink(int32(chip))].Link
		down := df.Net.OutPorts(df.Net.Router(df.Switches[w][s]))[df.TermPort(w, s, t)].Link
		if !df.Net.LinkAlive(up) || !df.Net.LinkAlive(down) {
			return nil, &PartitionError{Where: fmt.Sprintf("chip %d terminal", chip)}
		}
	}

	// Alive inter-switch adjacency, edges in out-port order.
	type swEdge struct {
		to   int32
		port int16
	}
	adj := make([][]swEdge, n)
	radj := make([][]int32, n)
	for w := int32(0); w < g; w++ {
		for s := int32(0); s < a; s++ {
			u := w*a + s
			r := df.Net.Router(df.Switches[w][s])
			for o, op := range df.Net.OutPorts(r) {
				if op.Link < 0 || !df.Net.LinkAlive(op.Link) {
					continue
				}
				v := swIndex[op.Dst]
				if v < 0 {
					continue // terminal link
				}
				adj[u] = append(adj[u], swEdge{to: v, port: int16(o)})
				radj[v] = append(radj[v], u)
			}
		}
	}

	// Per-destination backward BFS; lowest out port among minimizers.
	const unreached = int16(1) << 14
	maxDist := int16(0)
	dq := make([]int32, 0, n)
	for d := int32(0); d < n; d++ {
		base := func(u int32) int32 { return u*n + d }
		for u := int32(0); u < n; u++ {
			fd.dist[base(u)] = unreached
			fd.next[base(u)] = -1
		}
		fd.dist[base(d)] = 0
		dq = dq[:0]
		dq = append(dq, d)
		for len(dq) > 0 {
			v := dq[0]
			dq = dq[1:]
			for _, u := range radj[v] {
				if fd.dist[base(u)] == unreached {
					fd.dist[base(u)] = fd.dist[base(v)] + 1
					dq = append(dq, u)
				}
			}
		}
		for u := int32(0); u < n; u++ {
			if u == d {
				continue
			}
			du := fd.dist[base(u)]
			if du == unreached {
				return nil, &PartitionError{Where: "switch graph"}
			}
			if du > maxDist {
				maxDist = du
			}
			for _, e := range adj[u] {
				if fd.dist[base(e.to)] == du-1 {
					fd.next[base(u)] = e.port
					break
				}
			}
		}
	}
	// Hop VCs: 0 on the NIC uplink, then 1..D on switch hops, D on the
	// terminal downlink — D+1 channels.
	fd.vcs = uint8(maxDist) + 1
	if prov := minProvisionedVCs(df.Net); fd.vcs > prov {
		return nil, &DegradedVCError{Need: fd.vcs, Provisioned: prov}
	}
	return fd, nil
}

// VCs returns the VC requirement (degraded switch-graph diameter + 1).
func (fd *FaultDragonflyRouter) VCs() uint8 { return fd.vcs }

// Func returns the netsim routing function. It mutates no packet state:
// the hop index is recovered from the distance tables, so repeated calls
// from ideal-switch lookahead are safe.
func (fd *FaultDragonflyRouter) Func() netsim.RouteFunc {
	a, n := fd.a, fd.n
	return func(net *netsim.Network, r *netsim.Router, p *netsim.Packet) (int, uint8) {
		if r.Kind == netsim.KindNIC {
			if r.Chip == p.DstChip {
				return int(r.EjectOut), 0
			}
			return fd.df.NICUplink(r.Chip), 0
		}
		wd, sd, td := fd.df.Params.ChipLocation(p.DstChip)
		dst := int32(wd)*a + int32(sd)
		cur := r.WGroup*a + r.CGroup
		ws, ss, _ := fd.df.Params.ChipLocation(p.SrcChip)
		src := int32(ws)*a + int32(ss)
		// VC = hops taken so far on the switch graph; every hop moves one
		// step closer, so it equals D(src,dst) - dist(here,dst).
		total := fd.dist[src*n+dst]
		if cur == dst {
			return fd.df.TermPort(wd, sd, td), uint8(total)
		}
		here := fd.dist[cur*n+dst]
		return int(fd.next[cur*n+dst]), uint8(total-here) + 1
	}
}

// Sanitize returns the keep-predicate for netsim.SanitizeInFlight after a
// mid-run recompute. The router keeps no per-packet scratch, but its VC
// derivation assumes every hop moved one step closer to the destination —
// true on the path the tables produced, not necessarily for a packet that
// followed the previous tables. Packets now farther from their destination
// than their source is (the subtraction would wrap) or whose remaining hop
// VCs would fall below their current VC (breaking the increasing-VC
// deadlock argument) are retired.
func (fd *FaultDragonflyRouter) Sanitize() func(r *netsim.Router, p *netsim.Packet) bool {
	a, n := fd.a, fd.n
	return func(r *netsim.Router, p *netsim.Packet) bool {
		if r.Kind == netsim.KindNIC {
			return true // uplink on VC 0 or ejection, valid under any tables
		}
		wd, sd, _ := fd.df.Params.ChipLocation(p.DstChip)
		dst := int32(wd)*a + int32(sd)
		ws, ss, _ := fd.df.Params.ChipLocation(p.SrcChip)
		src := int32(ws)*a + int32(ss)
		total := int32(fd.dist[src*n+dst])
		cur := r.WGroup*a + r.CGroup
		here := int32(fd.dist[cur*n+dst])
		if here > total {
			return false
		}
		if cur == dst {
			return int32(p.VC) <= total // terminal downlink uses VC total
		}
		return total-here+1 >= int32(p.VC)
	}
}
