package topology

import (
	"fmt"
	"sort"

	"sldf/internal/engine"
	"sldf/internal/netsim"
)

// FaultSpec describes component failures to inject into a freshly built
// network: defective dies (routers) and broken channels (cut cables, dead
// SR-LR conversion modules). Faults are deterministic: the same spec
// applied to the same topology always disables the same components,
// regardless of worker count or cycle engine.
//
// Fraction-based sampling draws from the topology's FaultDomain — the set
// of components whose loss the topology can in principle route around
// (mesh channels, local/global cables, SR-LR port modules, cores of
// multi-core chips). Explicit Links/Routers may name any component. A
// spec that kills every terminal of a chip is not rejected:
// netsim.Network.ApplyFaults drops the dead chip from the workload and
// returns it, and core.Build keeps degraded operation going without it.
// Specs that disconnect the surviving network are rejected by the
// fault-aware routing constructors (routing.ErrPartitioned).
type FaultSpec struct {
	// Seed drives the sampling of fraction-based faults. Two specs with the
	// same fractions but different seeds fail different components.
	Seed uint64
	// LinkFraction in [0, 1] disables that fraction of the domain's
	// channels. Both directions of a bidirectional channel fail together,
	// like a cut cable.
	LinkFraction float64
	// RouterFraction in [0, 1] disables that fraction of the domain's
	// eligible routers (with every incident link).
	RouterFraction float64
	// Links lists explicit link IDs to disable, in addition to sampling.
	Links []int32
	// Routers lists explicit router IDs to disable, in addition to
	// sampling.
	Routers []netsim.NodeID
}

// Empty reports whether the spec injects no faults at all. Building with
// an empty spec is bitwise identical to building without one.
func (f FaultSpec) Empty() bool {
	return f.LinkFraction == 0 && f.RouterFraction == 0 &&
		len(f.Links) == 0 && len(f.Routers) == 0
}

// Validate rejects out-of-range fractions.
func (f FaultSpec) Validate() error {
	if f.LinkFraction < 0 || f.LinkFraction > 1 {
		return fmt.Errorf("topology: LinkFraction %g outside [0, 1]", f.LinkFraction)
	}
	if f.RouterFraction < 0 || f.RouterFraction > 1 {
		return fmt.Errorf("topology: RouterFraction %g outside [0, 1]", f.RouterFraction)
	}
	return nil
}

// FaultDomain lists the components of a built topology that are eligible
// for fraction-based fault sampling.
type FaultDomain struct {
	// Channels are bidirectional link pairs {forward ID, reverse ID} that
	// fail as a unit.
	Channels [][2]int32
	// Routers are individually failable routers.
	Routers []netsim.NodeID
}

// Resolve expands the spec against a fault domain into explicit router and
// link sets, deterministically for a given Seed. Channel and router
// candidates are shuffled by independent seeded streams and the first
// round(fraction·len) entries fail; explicit Links/Routers are appended.
func (f FaultSpec) Resolve(d FaultDomain) (routers []netsim.NodeID, links []int32) {
	if k := sampleCount(f.LinkFraction, len(d.Channels)); k > 0 {
		order := samplePerm(f.Seed, 0, len(d.Channels))
		for _, idx := range order[:k] {
			ch := d.Channels[idx]
			links = append(links, ch[0], ch[1])
		}
	}
	if k := sampleCount(f.RouterFraction, len(d.Routers)); k > 0 {
		order := samplePerm(f.Seed, 1, len(d.Routers))
		for _, idx := range order[:k] {
			routers = append(routers, d.Routers[idx])
		}
	}
	links = append(links, f.Links...)
	routers = append(routers, f.Routers...)
	return routers, links
}

// sampleCount rounds fraction·n to the nearest integer, clamped to [0, n].
func sampleCount(fraction float64, n int) int {
	if fraction <= 0 || n == 0 {
		return 0
	}
	k := int(fraction*float64(n) + 0.5)
	if k > n {
		k = n
	}
	return k
}

// samplePerm returns a seeded permutation of [0, n).
func samplePerm(seed, stream uint64, n int) []int32 {
	rng := engine.NewRNGStream(seed^0xFA017, stream)
	out := make([]int32, n)
	rng.Perm(out)
	return out
}

// channelPairs pairs up opposite-direction links of a network: for every
// link src→dst with src < dst whose reverse dst→src exists and satisfies
// keep, a {forward, reverse} channel is emitted in forward-ID order.
func channelPairs(net *netsim.Network, keep func(l *netsim.Link) bool) [][2]int32 {
	type ends struct{ src, dst netsim.NodeID }
	reverse := make(map[ends]int32)
	for i := range net.Links {
		l := &net.Links[i]
		if keep == nil || keep(l) {
			reverse[ends{l.Src, l.Dst}] = l.ID
		}
	}
	var out [][2]int32
	for i := range net.Links {
		l := &net.Links[i]
		if l.Src >= l.Dst || (keep != nil && !keep(l)) {
			continue
		}
		if rev, ok := reverse[ends{l.Dst, l.Src}]; ok {
			out = append(out, [2]int32{l.ID, rev})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// multiCoreTerminals returns the terminal routers of chips that have at
// least two terminals (losing one keeps the chip addressable).
func multiCoreTerminals(net *netsim.Network) []netsim.NodeID {
	var out []netsim.NodeID
	for _, nodes := range net.ChipNodes {
		if len(nodes) < 2 {
			continue
		}
		out = append(out, nodes...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FaultDomain returns the switch-less Dragonfly's samplable fault set:
// every mesh, local and global channel, every SR-LR port module, and every
// core of a multi-core chip.
func (s *SLDF) FaultDomain() FaultDomain {
	d := FaultDomain{
		// Core↔core mesh channels plus the long-reach local/global cables.
		// Core↔port SR stubs are excluded: their loss is equivalent to the
		// port module failing, which router sampling covers.
		Channels: channelPairs(s.Net, func(l *netsim.Link) bool {
			srcKind := s.Net.Router(l.Src).Kind
			dstKind := s.Net.Router(l.Dst).Kind
			switch l.Class {
			case netsim.HopOnChip, netsim.HopShortReach:
				return srcKind == netsim.KindCore && dstKind == netsim.KindCore
			default: // local / global cables
				return true
			}
		}),
		Routers: multiCoreTerminals(s.Net),
	}
	for i := range s.Net.Routers {
		if s.Net.Routers[i].Kind == netsim.KindPort {
			d.Routers = append(d.Routers, s.Net.Routers[i].ID)
		}
	}
	sort.Slice(d.Routers, func(i, j int) bool { return d.Routers[i] < d.Routers[j] })
	return d
}

// FaultDomain returns the switch-based Dragonfly's samplable fault set:
// the inter-switch local and global channels. Switches and NICs are single
// points of failure for their terminals and are not sampled.
func (df *Dragonfly) FaultDomain() FaultDomain {
	return FaultDomain{
		Channels: channelPairs(df.Net, func(l *netsim.Link) bool {
			return df.Net.Router(l.Src).Kind == netsim.KindSwitch &&
				df.Net.Router(l.Dst).Kind == netsim.KindSwitch
		}),
	}
}

// FaultDomain returns the standalone mesh C-group's samplable fault set:
// every mesh channel, and every core of a multi-core chip.
func (g *MeshCGroup) FaultDomain() FaultDomain {
	return FaultDomain{
		Channels: channelPairs(g.Net, nil),
		Routers:  multiCoreTerminals(g.Net),
	}
}

// FaultDomain returns the single switch's samplable fault set, which is
// empty: every component is a single point of failure.
func (s *SingleSwitch) FaultDomain() FaultDomain { return FaultDomain{} }

// componentClosure treats the prospective fault sets as applied and
// returns the candidate nodes lying outside the largest surviving
// connected component (over the undirected union of alive links between
// candidates). Ties go to the earliest-discovered component, i.e. the one
// containing the lowest router ID. The returned nodes are as good as dead
// — no usable path reaches them — and the caller adds them to the fault
// set so chips keep only genuinely reachable terminals.
func componentClosure(net *netsim.Network, candidates []netsim.NodeID, deadR map[netsim.NodeID]bool, deadL map[int32]bool) []netsim.NodeID {
	idx := make(map[netsim.NodeID]int32, len(candidates))
	for i, id := range candidates {
		idx[id] = int32(i)
	}
	adj := make([][]int32, len(candidates))
	for i, id := range candidates {
		if deadR[id] {
			continue
		}
		for _, op := range net.OutPorts(net.Router(id)) {
			if op.Link < 0 || !net.LinkAlive(op.Link) || deadL[op.Link] || deadR[op.Dst] {
				continue
			}
			if j, ok := idx[op.Dst]; ok {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], int32(i))
			}
		}
	}
	comp := make([]int32, len(candidates))
	for i := range comp {
		comp[i] = -1
	}
	var sizes []int32
	var queue []int32
	for i := range candidates {
		if comp[i] >= 0 {
			continue
		}
		c := int32(len(sizes))
		sizes = append(sizes, 0)
		comp[i] = c
		queue = append(queue[:0], int32(i))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			sizes[c]++
			for _, v := range adj[u] {
				if comp[v] < 0 {
					comp[v] = c
					queue = append(queue, v)
				}
			}
		}
	}
	main := int32(0)
	for c, sz := range sizes {
		if sz > sizes[main] {
			main = int32(c)
		}
	}
	var out []netsim.NodeID
	for i, id := range candidates {
		if comp[i] != main {
			out = append(out, id)
		}
	}
	return out
}

// toSets expands fault slices into router and link lookups.
func toSets(net *netsim.Network, routers []netsim.NodeID, links []int32) (map[netsim.NodeID]bool, map[int32]bool) {
	deadR := make(map[netsim.NodeID]bool, len(routers))
	for _, id := range routers {
		deadR[id] = true
	}
	deadL := make(map[int32]bool, len(links))
	for _, id := range links {
		deadL[id] = true
	}
	return deadR, deadL
}

// FaultClosure returns the additional routers a prospective fault set
// effectively kills: for every C-group, the surviving cores and usable
// port modules outside the C-group's largest connected component. A core
// cut off from its C-group's port-connected mesh is unreachable no matter
// how the rest of the system routes, so the build treats it as failed —
// its chip stays addressable through the chip's surviving cores, or, when
// none survive, is dropped from the workload (netsim.Network.ApplyFaults
// returns it as a dead chip).
func (s *SLDF) FaultClosure(routers []netsim.NodeID, links []int32) []netsim.NodeID {
	deadR, deadL := toSets(s.Net, routers, links)
	alive := func(id netsim.NodeID) bool {
		return !deadR[id] && s.Net.RouterAlive(id)
	}
	var out []netsim.NodeID
	g := s.Params.Groups()
	for w := 0; w < g; w++ {
		for c := 0; c < s.Params.AB; c++ {
			cg := &s.CGroups[w][c]
			var candidates []netsim.NodeID
			for y := range cg.Cores {
				for x := range cg.Cores[y] {
					if id := cg.Cores[y][x]; alive(id) {
						candidates = append(candidates, id)
					}
				}
			}
			port := func(p *PortInfo) {
				if !alive(p.Node) || !alive(p.AttachCore) {
					return
				}
				up := s.Net.OutPorts(s.Net.Router(p.AttachCore))[p.CoreToPort].Link
				down := s.Net.OutPorts(s.Net.Router(p.Node))[p.PortToCore].Link
				if !s.Net.LinkAlive(up) || deadL[up] || !s.Net.LinkAlive(down) || deadL[down] {
					return
				}
				candidates = append(candidates, p.Node)
			}
			for peer := range cg.LocalPorts {
				if peer != c {
					port(&cg.LocalPorts[peer])
				}
			}
			if g > 1 {
				for j := range cg.GlobalPorts {
					port(&cg.GlobalPorts[j])
				}
			}
			out = append(out, componentClosure(s.Net, candidates, deadR, deadL)...)
		}
	}
	return out
}

// FaultClosure returns the surviving mesh routers outside the largest
// connected component: a terminal cut off from the main mesh is as good
// as dead, and treating it so keeps the rest of the mesh routable.
func (g *MeshCGroup) FaultClosure(routers []netsim.NodeID, links []int32) []netsim.NodeID {
	deadR, deadL := toSets(g.Net, routers, links)
	var candidates []netsim.NodeID
	for i := range g.Net.Routers {
		if id := g.Net.Routers[i].ID; !deadR[id] && g.Net.RouterAlive(id) {
			candidates = append(candidates, id)
		}
	}
	return componentClosure(g.Net, candidates, deadR, deadL)
}
