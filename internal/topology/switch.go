package topology

import (
	"fmt"

	"sldf/internal/netsim"
)

// SingleSwitch is a non-blocking switch with T terminal chips, each attached
// by one bidirectional channel — the "Switch" baseline of Fig. 10(a,b).
type SingleSwitch struct {
	Net    *netsim.Network
	Switch netsim.NodeID
	// NICs[c] is the terminal router of chip c.
	NICs []netsim.NodeID
	// UplinkPort[c] is the NIC's output port index toward the switch.
	UplinkPort []int
	// DownPort[c] is the switch's output port index toward chip c's NIC.
	DownPort []int
}

// BuildSingleSwitch constructs the single-switch system. Terminal links use
// the Local (long-reach) class, matching a chip-to-switch cable; vcs virtual
// channels are provisioned.
func BuildSingleSwitch(terminals int, classes LinkClasses, opts netsim.NetworkOptions) (*SingleSwitch, error) {
	if err := validatePositive("terminals", terminals, 2); err != nil {
		return nil, err
	}
	b := netsim.NewBuilder()
	b.Grow(1+terminals, 2*terminals) // the switch and its NICs, a cable pair each
	sw := b.AddRouter(netsim.KindSwitch)
	b.Router(sw).Ideal = true // the paper models switches as ideal routers
	s := &SingleSwitch{
		Switch:     sw,
		NICs:       make([]netsim.NodeID, terminals),
		UplinkPort: make([]int, terminals),
		DownPort:   make([]int, terminals),
	}
	for c := 0; c < terminals; c++ {
		nic := b.AddRouter(netsim.KindNIC)
		b.Router(nic).Chip = int32(c)
		b.AddTerminal(nic, int32(c), 0)
		up, down := b.ConnectBidi(nic, sw, classes.Local)
		s.NICs[c] = nic
		s.UplinkPort[c] = up
		s.DownPort[c] = down
	}
	net, err := b.Finalize(opts)
	if err != nil {
		return nil, err
	}
	s.Net = net
	return s, nil
}

// Route returns the minimal routing function: NIC→switch→NIC, single VC.
func (s *SingleSwitch) Route() netsim.RouteFunc {
	return func(net *netsim.Network, r *netsim.Router, p *netsim.Packet) (int, uint8) {
		switch r.Kind {
		case netsim.KindNIC:
			if r.Chip == p.DstChip {
				return int(r.EjectOut), 0
			}
			return s.UplinkPort[r.Chip], 0
		default: // switch
			return s.DownPort[p.DstChip], 0
		}
	}
}

// MeshCGroup is a standalone wafer C-group: an M×M mesh of NoC routers where
// each chiplet contributes NoCDim×NoCDim routers — the "2D-Mesh" curve of
// Fig. 10(a,b). Chips (chiplets) tile the mesh in row-major chiplet order.
type MeshCGroup struct {
	Net    *netsim.Network
	M      int // mesh side in routers
	NoCDim int // routers per chiplet side
	// Nodes[y][x] is the router at mesh coordinate (x, y).
	Nodes [][]netsim.NodeID
	// DirPort[router][dir] is the mesh out-port of router (x,y) in
	// direction dir (DirEast..DirSouth), -1 when absent.
	DirPort [][4]int32
}

// Mesh directions.
const (
	DirEast = iota
	DirWest
	DirNorth
	DirSouth
)

// BuildMeshCGroup constructs a standalone C-group of (chipletDim×noCDim)²
// routers. Links inside a chiplet use the OnChip class; links crossing a
// chiplet boundary use the SR class.
func BuildMeshCGroup(chipletDim, noCDim int, classes LinkClasses, opts netsim.NetworkOptions) (*MeshCGroup, error) {
	if err := validatePositive("chipletDim", chipletDim, 1); err != nil {
		return nil, err
	}
	if err := validatePositive("noCDim", noCDim, 1); err != nil {
		return nil, err
	}
	m := chipletDim * noCDim
	if m < 2 {
		return nil, fmt.Errorf("topology: mesh side %d too small", m)
	}
	b := netsim.NewBuilder()
	b.Grow(m*m, meshLinks(m, m))
	g := &MeshCGroup{M: m, NoCDim: noCDim}
	g.Nodes = make([][]netsim.NodeID, m)
	for y := 0; y < m; y++ {
		g.Nodes[y] = make([]netsim.NodeID, m)
		for x := 0; x < m; x++ {
			id := b.AddRouter(netsim.KindCore)
			r := b.Router(id)
			r.X, r.Y = int16(x), int16(y)
			chipX, chipY := x/noCDim, y/noCDim
			chip := int32(chipY*chipletDim + chipX)
			b.AddTerminal(id, chip, 0)
			g.Nodes[y][x] = id
		}
	}
	addMeshLinks(b, g.Nodes, noCDim, classes)
	net, err := b.Finalize(opts)
	if err != nil {
		return nil, err
	}
	g.Net = net
	g.DirPort = buildDirPorts(net)
	return g, nil
}

// meshLinks returns the directed link count addMeshLinks creates on an
// mx×my mesh: one pair per horizontal and per vertical neighbor.
func meshLinks(mx, my int) int { return 2 * (my*(mx-1) + mx*(my-1)) }

// addMeshLinks wires a (possibly rectangular) 2D mesh over nodes, choosing
// OnChip vs SR class by whether the link crosses a chiplet boundary of size
// noCDim. nodes is indexed [y][x].
func addMeshLinks(b *netsim.Builder, nodes [][]netsim.NodeID, noCDim int, classes LinkClasses) {
	my := len(nodes)
	for y := 0; y < my; y++ {
		mx := len(nodes[y])
		for x := 0; x < mx; x++ {
			if x+1 < mx {
				spec := classes.OnChip
				if (x+1)%noCDim == 0 {
					spec = classes.SR
				}
				b.ConnectBidi(nodes[y][x], nodes[y][x+1], spec)
			}
			if y+1 < my {
				spec := classes.OnChip
				if (y+1)%noCDim == 0 {
					spec = classes.SR
				}
				b.ConnectBidi(nodes[y][x], nodes[y+1][x], spec)
			}
		}
	}
}

// buildDirPorts maps every core's out-ports to mesh directions by
// coordinates: DirPort[routerID][dir] is the out-port towards the
// neighbour core of the same C-group in direction dir, or -1. The table
// holds one fixed-width entry per router, all -1 for routers that are not
// cores, so a mesh hop reads it with a single load.
func buildDirPorts(net *netsim.Network) [][4]int32 {
	dp := make([][4]int32, len(net.Routers))
	for id := range net.Routers {
		ports := &dp[id]
		*ports = [4]int32{-1, -1, -1, -1}
		r := &net.Routers[id]
		if r.Kind != netsim.KindCore {
			continue
		}
		for o, op := range net.OutPorts(r) {
			if op.Link < 0 {
				continue
			}
			d := net.Router(op.Dst)
			if d.Kind != netsim.KindCore || d.CGroup != r.CGroup || d.WGroup != r.WGroup {
				continue
			}
			switch {
			case d.X == r.X+1 && d.Y == r.Y:
				ports[DirEast] = int32(o)
			case d.X == r.X-1 && d.Y == r.Y:
				ports[DirWest] = int32(o)
			case d.Y == r.Y+1 && d.X == r.X:
				ports[DirNorth] = int32(o)
			case d.Y == r.Y-1 && d.X == r.X:
				ports[DirSouth] = int32(o)
			}
		}
	}
	return dp
}

// RouteXY returns dimension-order (X-then-Y) routing on the standalone
// C-group, single VC, deadlock-free.
func (g *MeshCGroup) RouteXY() netsim.RouteFunc {
	return func(net *netsim.Network, r *netsim.Router, p *netsim.Packet) (int, uint8) {
		d := net.Router(p.DstNode)
		if d.ID == r.ID {
			return int(r.EjectOut), 0
		}
		dp := &g.DirPort[r.ID]
		switch {
		case d.X > r.X:
			return int(dp[DirEast]), 0
		case d.X < r.X:
			return int(dp[DirWest]), 0
		case d.Y > r.Y:
			return int(dp[DirNorth]), 0
		default:
			return int(dp[DirSouth]), 0
		}
	}
}
