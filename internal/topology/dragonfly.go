package topology

import (
	"fmt"

	"sldf/internal/netsim"
)

// DragonflyParams sizes a switch-based Dragonfly (Kim et al. 2008).
// The paper's baselines: radix-16 → {P:4, A:8, H:5} (g=41, 1312 chips);
// radix-32 → {P:8, A:16, H:9} (g=145, 18560 chips).
type DragonflyParams struct {
	P int // terminals per switch
	A int // switches per group (each switch has A-1 local ports)
	H int // global ports per switch
	G int // number of groups; 0 selects the maximum A*H+1
}

// Validate checks structural feasibility. The builder requires the balanced
// maximum configuration g = A*H + 1 (the paper always evaluates it) unless
// G == 1 (a single fully-connected group, used for intra-group studies).
func (p DragonflyParams) Validate() error {
	if p.P < 1 || p.A < 1 || p.H < 0 {
		return fmt.Errorf("topology: invalid dragonfly params %+v", p)
	}
	g := p.G
	if g == 0 {
		g = p.A*p.H + 1
	}
	if g != 1 && g != p.A*p.H+1 {
		return fmt.Errorf("topology: dragonfly requires G = A*H+1 (=%d) or 1, got %d", p.A*p.H+1, g)
	}
	return nil
}

// Groups returns the resolved group count.
func (p DragonflyParams) Groups() int {
	if p.G != 0 {
		return p.G
	}
	return p.A*p.H + 1
}

// Chips returns the total number of terminal chips.
func (p DragonflyParams) Chips() int { return p.P * p.A * p.Groups() }

// Dragonfly is a built switch-based Dragonfly with its wiring tables.
type Dragonfly struct {
	Net    *netsim.Network
	Params DragonflyParams

	// Switches[w][s] is the switch router of group w, index s.
	Switches [][]netsim.NodeID
	// NICs[chip] is the terminal router of each chip.
	NICs []netsim.NodeID
	// nicUp[chip] is the NIC output port toward its switch.
	nicUp []int
	// termPort[w][s][t] is switch (w,s)'s output port toward terminal t.
	termPort [][][]int
	// localPort[w][s][s2] is switch (w,s)'s output port toward switch s2
	// of the same group (-1 for s2 == s).
	localPort [][][]int
	// globalPort[w][s][k] is switch (w,s)'s k-th global output port.
	globalPort [][][]int
}

// globalTarget returns the peer group of group w's global channel G under
// the relative ("palmtree") arrangement, and the peer's channel index.
func globalTarget(w, G, g, channels int) (peerGroup, peerChannel int) {
	peerGroup = (w + G + 1) % g
	peerChannel = channels - 1 - G
	return
}

// ChipLocation maps a chip to (group, switch, terminal) under the builder's
// numbering: chip = (w*A + s)*P + t.
func (p DragonflyParams) ChipLocation(chip int32) (w, s, t int) {
	t = int(chip) % p.P
	sw := int(chip) / p.P
	s = sw % p.A
	w = sw / p.A
	return
}

// size returns the exact router and link counts BuildDragonfly creates:
// per switch its P NICs with a cable pair each, a local cable pair per
// switch pair of a group, and one global cable end per global port.
func (p DragonflyParams) size() (routers, links int) {
	g := p.Groups()
	switches := g * p.A
	routers = switches * (1 + p.P)
	links = switches * (2*p.P + p.A - 1)
	if g > 1 {
		links += switches * p.H
	}
	return routers, links
}

// BuildDragonfly constructs the network. Terminal and local links use the
// Local class; global links use the Global class.
func BuildDragonfly(params DragonflyParams, classes LinkClasses, opts netsim.NetworkOptions) (*Dragonfly, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	g := params.Groups()
	a, p, h := params.A, params.P, params.H

	b := netsim.NewBuilder()
	b.Grow(params.size())
	df := &Dragonfly{Params: params}
	df.Switches = make([][]netsim.NodeID, g)
	df.termPort = make([][][]int, g)
	df.localPort = make([][][]int, g)
	df.globalPort = make([][][]int, g)
	df.NICs = make([]netsim.NodeID, params.Chips())
	df.nicUp = make([]int, params.Chips())

	// Switches and their terminals.
	for w := 0; w < g; w++ {
		df.Switches[w] = make([]netsim.NodeID, a)
		df.termPort[w] = make([][]int, a)
		df.localPort[w] = make([][]int, a)
		df.globalPort[w] = make([][]int, a)
		for s := 0; s < a; s++ {
			sw := b.AddRouter(netsim.KindSwitch)
			r := b.Router(sw)
			r.WGroup = int32(w)
			r.CGroup = int32(s)
			// Sec. V-A4: "all the switches are modeled as single ideal
			// high-radix routers".
			r.Ideal = true
			df.Switches[w][s] = sw
			df.termPort[w][s] = make([]int, p)
			df.localPort[w][s] = make([]int, a)
			df.globalPort[w][s] = make([]int, h)
			for t := 0; t < p; t++ {
				chip := int32((w*a+s)*p + t)
				nic := b.AddRouter(netsim.KindNIC)
				nr := b.Router(nic)
				nr.WGroup = int32(w)
				nr.CGroup = int32(s)
				nr.Chip = chip
				b.AddTerminal(nic, chip, 0)
				up, down := b.ConnectBidi(nic, sw, classes.Local)
				df.NICs[chip] = nic
				df.nicUp[chip] = up
				df.termPort[w][s][t] = down
			}
		}
	}

	// Local all-to-all within each group.
	for w := 0; w < g; w++ {
		for s := 0; s < a; s++ {
			df.localPort[w][s][s] = -1
			for s2 := s + 1; s2 < a; s2++ {
				o1, o2 := b.ConnectBidi(df.Switches[w][s], df.Switches[w][s2], classes.Local)
				df.localPort[w][s][s2] = o1
				df.localPort[w][s2][s] = o2
			}
		}
	}

	// Global wiring (relative arrangement), only when g > 1.
	if g > 1 {
		channels := a * h
		for w := 0; w < g; w++ {
			for G := 0; G < channels; G++ {
				// Each undirected link is created once, from the lower-index
				// group endpoint.
				w2, G2 := globalTarget(w, G, g, channels)
				if w >= w2 {
					continue
				}
				s1, k1 := G/h, G%h
				s2, k2 := G2/h, G2%h
				o1, o2 := b.ConnectBidi(df.Switches[w][s1], df.Switches[w2][s2], classes.Global)
				df.globalPort[w][s1][k1] = o1
				df.globalPort[w2][s2][k2] = o2
			}
		}
	}

	net, err := b.Finalize(opts)
	if err != nil {
		return nil, err
	}
	df.Net = net
	return df, nil
}

// GlobalOwner returns, for a packet in group w that must reach group wd, the
// switch index and global port index owning the direct channel w→wd.
func (df *Dragonfly) GlobalOwner(w, wd int) (s, k int) {
	g := df.Params.Groups()
	o := ((wd-w-1)%g + g) % g
	return o / df.Params.H, o % df.Params.H
}

// NICUplink returns the NIC output port of chip toward its switch.
func (df *Dragonfly) NICUplink(chip int32) int { return df.nicUp[chip] }

// TermPort returns switch (w,s)'s output port toward its terminal t.
func (df *Dragonfly) TermPort(w, s, t int) int { return df.termPort[w][s][t] }

// LocalPort returns switch (w,s)'s output port toward switch s2 of the same
// group.
func (df *Dragonfly) LocalPort(w, s, s2 int) int { return df.localPort[w][s][s2] }

// GlobalPortIdx returns switch (w,s)'s k-th global output port.
func (df *Dragonfly) GlobalPortIdx(w, s, k int) int { return df.globalPort[w][s][k] }
