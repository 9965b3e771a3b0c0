package topology

import (
	"fmt"

	"sldf/internal/netsim"
)

// PortLayout selects where a C-group's external ports attach to the mesh
// perimeter.
type PortLayout uint8

const (
	// LayoutPerimeter distributes ports evenly around the whole perimeter in
	// label order (paper Fig. 6/9 style). Valid for the baseline VC scheme.
	LayoutPerimeter PortLayout = iota
	// LayoutSouthNorth attaches global ports along the south row (y=0) and
	// local ports along the north row (y=My-1). Required by the reduced-VC
	// scheme's restricted row-column-row routing (see routing package).
	LayoutSouthNorth
)

// SLDFParams sizes a switch-less Dragonfly on wafers.
//
// A C-group is a ChipCols×ChipRows array of chiplets, each chiplet an
// NoCDim×NoCDim mesh of cores, forming one (ChipCols·NoCDim)×(ChipRows·NoCDim)
// mesh. Each C-group has AB-1 local ports (one per peer C-group in its
// W-group) and H global ports. The system has G W-groups.
//
// The paper's evaluated configurations:
//
//	radix-16 class: {NoCDim:2, ChipCols:2, ChipRows:2, AB:8, H:5}  → g=41, 1312 chips
//	radix-32 class: {NoCDim:2, ChipCols:4, ChipRows:2, AB:16, H:9} → g=145, 18560 chips
type SLDFParams struct {
	NoCDim   int
	ChipCols int
	ChipRows int
	AB       int // C-groups per W-group (a·b in the paper)
	H        int // global ports per C-group
	G        int // W-groups; 0 selects the maximum AB*H+1; 1 = single W-group
	Layout   PortLayout
}

// Validate checks structural feasibility.
func (p SLDFParams) Validate() error {
	if p.NoCDim < 1 || p.ChipCols < 1 || p.ChipRows < 1 {
		return fmt.Errorf("topology: invalid SLDF chiplet dims %+v", p)
	}
	if p.ChipCols*p.NoCDim < 2 || p.ChipRows*p.NoCDim < 2 {
		return fmt.Errorf("topology: SLDF C-group mesh must be at least 2x2")
	}
	if p.AB < 1 {
		return fmt.Errorf("topology: AB = %d, must be >= 1", p.AB)
	}
	g := p.Groups()
	if g != 1 && g != p.AB*p.H+1 {
		return fmt.Errorf("topology: SLDF requires G = AB*H+1 (=%d) or 1, got %d",
			p.AB*p.H+1, p.G)
	}
	if g > 1 && p.H < 1 {
		return fmt.Errorf("topology: multi-W-group SLDF needs H >= 1")
	}
	return nil
}

// Groups returns the resolved W-group count.
func (p SLDFParams) Groups() int {
	if p.G != 0 {
		return p.G
	}
	return p.AB*p.H + 1
}

// MeshX and MeshY return the C-group mesh dimensions in routers.
func (p SLDFParams) MeshX() int { return p.ChipCols * p.NoCDim }

// MeshY returns the C-group mesh height in routers.
func (p SLDFParams) MeshY() int { return p.ChipRows * p.NoCDim }

// ChipsPerCGroup returns chiplets per C-group.
func (p SLDFParams) ChipsPerCGroup() int { return p.ChipCols * p.ChipRows }

// Chips returns the total chip (chiplet) count: N of paper Eq. 1.
func (p SLDFParams) Chips() int { return p.ChipsPerCGroup() * p.AB * p.Groups() }

// ExternalPorts returns k, the external port count per C-group.
func (p SLDFParams) ExternalPorts() int { return p.AB - 1 + p.H }

// PortInfo describes one external port (SR-LR conversion module) of a
// C-group: a two-port router hanging off a perimeter core.
type PortInfo struct {
	Node       netsim.NodeID // the KindPort router
	AttachCore netsim.NodeID // perimeter core it attaches to
	CoreToPort int           // out-port index on AttachCore toward Node
	PortToCore int           // out-port index on Node toward AttachCore
	PortExt    int           // out-port index on Node toward the external link
	// PeerW/PeerC identify the far end: for a local port, (own W-group,
	// peer C-group); for a global port, (peer W-group, peer C-group index).
	PeerW int32
	PeerC int32
}

// CGroupInfo holds the construction tables of one C-group instance.
type CGroupInfo struct {
	// Cores[y][x] is the core router at mesh coordinate (x, y).
	Cores [][]netsim.NodeID
	// LocalPorts[c2] is the port toward peer C-group c2 (self entry unused).
	LocalPorts []PortInfo
	// GlobalPorts[j] is the j-th global port (j in [0, H)).
	GlobalPorts []PortInfo
}

// SLDF is a built switch-less Dragonfly with all wiring tables.
type SLDF struct {
	Net    *netsim.Network
	Params SLDFParams

	// CGroups[w][c] describes C-group c of W-group w.
	CGroups [][]CGroupInfo
	// DirPort[router][dir] is the mesh out-port of a core in direction dir
	// (DirEast..DirSouth), -1 when absent or not a core: one fixed-width
	// entry per router (see buildDirPorts).
	DirPort [][4]int32
}

// ChipsPer returns chips per C-group (convenience).
func (s *SLDF) ChipsPer() int { return s.Params.ChipsPerCGroup() }

// ChipLocation maps a chip ID to (W-group, C-group, chiplet index).
func (s *SLDF) ChipLocation(chip int32) (w, c, chiplet int) {
	per := s.Params.ChipsPerCGroup()
	chiplet = int(chip) % per
	cg := int(chip) / per
	c = cg % s.Params.AB
	w = cg / s.Params.AB
	return
}

// GlobalChannelOwner returns, within W-group w needing to reach W-group wd,
// the owning C-group index and global port index of the direct channel.
func (s *SLDF) GlobalChannelOwner(w, wd int) (c, j int) {
	g := s.Params.Groups()
	o := ((wd-w-1)%g + g) % g
	return o / s.Params.H, o % s.Params.H
}

// EntryCGroup returns the C-group index where traffic from W-group ws lands
// when it takes the direct global channel ws→w.
func (s *SLDF) EntryCGroup(ws, w int) int {
	channels := s.Params.AB * s.Params.H
	o := ((w-ws-1)%s.Params.Groups() + s.Params.Groups()) % s.Params.Groups()
	o2 := channels - 1 - o
	return o2 / s.Params.H
}

// perimeterSlots enumerates perimeter coordinates clockwise from (0,0):
// south row west→east, east column south→north, north row east→west, west
// column north→south.
func perimeterSlots(mx, my int) [][2]int {
	var out [][2]int
	for x := 0; x < mx; x++ {
		out = append(out, [2]int{x, 0})
	}
	for y := 1; y < my; y++ {
		out = append(out, [2]int{mx - 1, y})
	}
	for x := mx - 2; x >= 0; x-- {
		out = append(out, [2]int{x, my - 1})
	}
	for y := my - 2; y >= 1; y-- {
		out = append(out, [2]int{0, y})
	}
	return out
}

// portAttachCoords returns the mesh coordinates each of the k ports attaches
// to, in canonical port-label order: local ports to lower C-groups, global
// ports, local ports to higher C-groups (paper Property 2). c is the
// C-group's index within its W-group, used to split the local ports.
func (p SLDFParams) portAttachCoords(c int) [][2]int {
	k := p.ExternalPorts()
	mx, my := p.MeshX(), p.MeshY()
	coords := make([][2]int, 0, k)
	switch p.Layout {
	case LayoutSouthNorth:
		// Global ports spread over the south row; local ports over the
		// north row, both in label order.
		nLocal := p.AB - 1
		localX := func(i int) int {
			if nLocal <= 0 {
				return 0
			}
			return i * mx / nLocal
		}
		globalX := func(j int) int {
			if p.H <= 0 {
				return 0
			}
			return j * mx / p.H
		}
		for i := 0; i < c; i++ { // locals to lower C-groups
			coords = append(coords, [2]int{localX(i), my - 1})
		}
		for j := 0; j < p.H; j++ {
			coords = append(coords, [2]int{globalX(j), 0})
		}
		for i := c; i < nLocal; i++ { // locals to higher C-groups
			coords = append(coords, [2]int{localX(i), my - 1})
		}
	default: // LayoutPerimeter
		slots := perimeterSlots(mx, my)
		for j := 0; j < k; j++ {
			coords = append(coords, slots[j*len(slots)/k])
		}
	}
	return coords
}

// size returns the exact router and link counts BuildSLDF creates: per
// C-group a mesh of cores plus one two-link SR-LR module per external port,
// a local cable pair per C-group pair of a W-group, and one global cable
// end per global port.
func (p SLDFParams) size() (routers, links int) {
	g, ab := p.Groups(), p.AB
	ports := ab - 1
	if g > 1 {
		ports += p.H
	}
	cgroups := g * ab
	routers = cgroups * (p.MeshX()*p.MeshY() + ports)
	links = cgroups*(meshLinks(p.MeshX(), p.MeshY())+2*ports) + g*ab*(ab-1)
	if g > 1 {
		links += cgroups * p.H
	}
	return routers, links
}

// BuildSLDF constructs the full switch-less Dragonfly network.
func BuildSLDF(params SLDFParams, classes LinkClasses, opts netsim.NetworkOptions) (*SLDF, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	g := params.Groups()
	ab := params.AB
	mx, my := params.MeshX(), params.MeshY()
	chipsPer := params.ChipsPerCGroup()

	b := netsim.NewBuilder()
	b.Grow(params.size())
	s := &SLDF{Params: params}
	s.CGroups = make([][]CGroupInfo, g)

	// Pass 1: cores and intra-C-group meshes.
	for w := 0; w < g; w++ {
		s.CGroups[w] = make([]CGroupInfo, ab)
		for c := 0; c < ab; c++ {
			cg := &s.CGroups[w][c]
			cg.Cores = make([][]netsim.NodeID, my)
			for y := 0; y < my; y++ {
				cg.Cores[y] = make([]netsim.NodeID, mx)
				for x := 0; x < mx; x++ {
					id := b.AddRouter(netsim.KindCore)
					r := b.Router(id)
					r.X, r.Y = int16(x), int16(y)
					r.WGroup, r.CGroup = int32(w), int32(c)
					r.Label = int32(y*mx + x)
					chipletCol, chipletRow := x/params.NoCDim, y/params.NoCDim
					chiplet := chipletRow*params.ChipCols + chipletCol
					chip := int32((w*ab+c)*chipsPer + chiplet)
					b.AddTerminal(id, chip, 0)
					cg.Cores[y][x] = id
				}
			}
			addMeshLinks(b, cg.Cores, params.NoCDim, classes)
		}
	}

	// Pass 2: external port (SR-LR converter) nodes.
	wirePort := func(w, c int, attach [2]int) PortInfo {
		cg := &s.CGroups[w][c]
		core := cg.Cores[attach[1]][attach[0]]
		id := b.AddRouter(netsim.KindPort)
		r := b.Router(id)
		r.X, r.Y = int16(attach[0]), int16(attach[1])
		r.WGroup, r.CGroup = int32(w), int32(c)
		coreOut, _ := b.Connect(core, id, classes.SR)
		portOut, _ := b.Connect(id, core, classes.SR)
		return PortInfo{
			Node:       id,
			AttachCore: core,
			CoreToPort: coreOut,
			PortToCore: portOut,
			PortExt:    -1,
		}
	}
	for w := 0; w < g; w++ {
		for c := 0; c < ab; c++ {
			cg := &s.CGroups[w][c]
			coords := params.portAttachCoords(c)
			cg.LocalPorts = make([]PortInfo, ab)
			cg.GlobalPorts = make([]PortInfo, params.H)
			idx := 0
			for peer := 0; peer < c; peer++ {
				cg.LocalPorts[peer] = wirePort(w, c, coords[idx])
				idx++
			}
			if g > 1 {
				for j := 0; j < params.H; j++ {
					cg.GlobalPorts[j] = wirePort(w, c, coords[idx])
					idx++
				}
			} else {
				idx += params.H // single W-group: global ports left unbuilt
			}
			for peer := c + 1; peer < ab; peer++ {
				cg.LocalPorts[peer] = wirePort(w, c, coords[idx])
				idx++
			}
		}
	}

	// Pass 3: local all-to-all within each W-group.
	for w := 0; w < g; w++ {
		for c1 := 0; c1 < ab; c1++ {
			for c2 := c1 + 1; c2 < ab; c2++ {
				p1 := &s.CGroups[w][c1].LocalPorts[c2]
				p2 := &s.CGroups[w][c2].LocalPorts[c1]
				o1, _ := b.Connect(p1.Node, p2.Node, classes.Local)
				o2, _ := b.Connect(p2.Node, p1.Node, classes.Local)
				p1.PortExt, p2.PortExt = o1, o2
				p1.PeerW, p1.PeerC = int32(w), int32(c2)
				p2.PeerW, p2.PeerC = int32(w), int32(c1)
			}
		}
	}

	// Pass 4: global all-to-all between W-groups (relative arrangement).
	if g > 1 {
		channels := ab * params.H
		for w := 0; w < g; w++ {
			for G := 0; G < channels; G++ {
				w2, G2 := globalTarget(w, G, g, channels)
				if w >= w2 {
					continue
				}
				p1 := &s.CGroups[w][G/params.H].GlobalPorts[G%params.H]
				p2 := &s.CGroups[w2][G2/params.H].GlobalPorts[G2%params.H]
				o1, _ := b.Connect(p1.Node, p2.Node, classes.Global)
				o2, _ := b.Connect(p2.Node, p1.Node, classes.Global)
				p1.PortExt, p2.PortExt = o1, o2
				p1.PeerW, p1.PeerC = int32(w2), int32(G2/params.H)
				p2.PeerW, p2.PeerC = int32(w), int32(G/params.H)
			}
		}
	}

	net, err := b.Finalize(opts)
	if err != nil {
		return nil, err
	}
	s.Net = net

	// Direction tables for mesh routing.
	s.DirPort = buildDirPorts(net)
	return s, nil
}
