package routing

import (
	"fmt"
	"maps"
	"slices"

	"sldf/internal/netsim"
)

// CDG is a channel dependency graph: nodes are (link, VC) pairs, and an edge
// u→v means some routed packet holds u while waiting for v. A routing
// algorithm is deadlock-free if its CDG is acyclic (Dally & Seitz).
type CDG struct {
	maxVC int
	edges map[int64]map[int64]struct{}
}

// NewCDG returns an empty dependency graph for links carrying maxVC VCs.
func NewCDG(maxVC int) *CDG {
	return &CDG{maxVC: maxVC, edges: map[int64]map[int64]struct{}{}}
}

func (g *CDG) key(link int32, vc uint8) int64 {
	return int64(link)*int64(g.maxVC) + int64(vc)
}

func (g *CDG) addEdge(from, to int64) {
	m, ok := g.edges[from]
	if !ok {
		m = map[int64]struct{}{}
		g.edges[from] = m
	}
	m[to] = struct{}{}
}

// Nodes returns the number of channel-VC nodes with outgoing edges.
func (g *CDG) Nodes() int { return len(g.edges) }

// HasCycle reports whether the dependency graph contains a cycle, returning
// one witness cycle as (link,vc) keys when it does.
func (g *CDG) HasCycle() (bool, []int64) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[int64]int8{}
	parent := map[int64]int64{}
	// Keys in sorted order, so the reported witness cycle is reproducible.
	for _, start := range slices.Sorted(maps.Keys(g.edges)) {
		if color[start] != white {
			continue
		}
		// Iterative DFS with an explicit stack of (node, expanded) frames.
		type frame struct {
			node int64
			next []int64
		}
		frames := []frame{{node: start, next: succs(g, start)}}
		color[start] = grey
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if len(f.next) == 0 {
				color[f.node] = black
				frames = frames[:len(frames)-1]
				continue
			}
			n := f.next[0]
			f.next = f.next[1:]
			switch color[n] {
			case white:
				color[n] = grey
				parent[n] = f.node
				frames = append(frames, frame{node: n, next: succs(g, n)})
			case grey:
				// Cycle: walk parents from f.node back to n.
				cyc := []int64{n}
				cur := f.node
				for cur != n {
					cyc = append(cyc, cur)
					cur = parent[cur]
				}
				return true, cyc
			}
		}
	}
	return false, nil
}

// succs returns n's successors in ascending key order.
func succs(g *CDG, n int64) []int64 {
	return slices.Sorted(maps.Keys(g.edges[n]))
}

// TracePath walks packet p's route through the network without simulating
// time, returning the sequence of (link, vc) hops. It fails if the route
// does not terminate at the destination within maxHops.
func TracePath(net *netsim.Network, route netsim.RouteFunc, p *netsim.Packet, maxHops int) ([][2]int64, error) {
	r := net.Router(p.SrcNode)
	var hops [][2]int64
	for i := 0; i < maxHops; i++ {
		out, vc := route(net, r, p)
		ports := net.OutPorts(r)
		if out == int(r.EjectOut) && ports[out].Link < 0 {
			if r.ID != p.DstNode {
				return nil, fmt.Errorf("routing: packet (%d→%d) ejected at router %d",
					p.SrcNode, p.DstNode, r.ID)
			}
			return hops, nil
		}
		op := ports[out]
		if op.Link < 0 {
			return nil, fmt.Errorf("routing: packet (%d→%d) sent to nil link at router %d",
				p.SrcNode, p.DstNode, r.ID)
		}
		hops = append(hops, [2]int64{int64(op.Link), int64(vc)})
		p.VC = vc
		r = net.Router(op.Dst)
	}
	return nil, fmt.Errorf("routing: packet (%d→%d) exceeded %d hops",
		p.SrcNode, p.DstNode, maxHops)
}

// BuildCDG enumerates routes for every (source node, destination chip) pair
// and, for Valiant modes, every possible intermediate W-group given by
// auxChoices (pass []int32{-1} for deterministic/minimal routing). It
// returns the assembled dependency graph.
func BuildCDG(net *netsim.Network, route netsim.RouteFunc, maxVC int, auxChoices func(srcChip, dstChip int32) []int32) (*CDG, error) {
	g := NewCDG(maxVC)
	chips := int32(net.NumChips())
	for srcChip := int32(0); srcChip < chips; srcChip++ {
		for _, srcNode := range net.ChipNodes[srcChip] {
			for dstChip := int32(0); dstChip < chips; dstChip++ {
				if dstChip == srcChip {
					continue
				}
				for _, dstNode := range net.ChipNodes[dstChip] {
					for _, aux := range auxChoices(srcChip, dstChip) {
						// Aux2 = 1 marks the intermediate-group decision as
						// already made, so tracing is deterministic even for
						// aux = -1 (minimal fallback) under Valiant modes.
						p := &netsim.Packet{
							SrcChip: srcChip, DstChip: dstChip,
							SrcNode: srcNode, DstNode: dstNode,
							Size: 4, Aux: aux, Aux2: 1,
						}
						hops, err := TracePath(net, route, p, 4096)
						if err != nil {
							return nil, err
						}
						for i := 1; i < len(hops); i++ {
							g.addEdge(
								g.key(int32(hops[i-1][0]), uint8(hops[i-1][1])),
								g.key(int32(hops[i][0]), uint8(hops[i][1])),
							)
						}
					}
				}
			}
		}
	}
	return g, nil
}

// MinimalAux returns the aux chooser for deterministic minimal routing.
func MinimalAux(srcChip, dstChip int32) []int32 { return []int32{-1} }
