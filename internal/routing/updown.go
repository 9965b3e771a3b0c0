package routing

import (
	"sldf/internal/netsim"
)

// region is fault-aware routing over one connected subgraph of alive
// routers (a C-group's surviving cores and port modules, or a standalone
// mesh with holes): precomputed next-hop tables along shortest up*/down*
// paths.
//
// Up*/down* (Autonet) is the classic deadlock-free discipline for
// irregular graphs: nodes are totally ordered by a BFS tree from a root
// (level, then ID), every edge is "up" (toward the root order) or "down",
// and a legal path takes zero or more up edges followed by zero or more
// down edges. Up→down transitions are allowed, down→up never, so the
// channel dependency graph is acyclic on a single virtual channel — the
// property the fault router's CDG tests verify computationally.
//
// Routing is phase-aware: a packet ascends until its region step first
// chooses a down edge, after which it may only descend. The caller tracks
// the packet's descending bit (routing functions are invoked exactly once
// per router visit on non-ideal routers, so the transition is recorded
// race-free in per-packet scratch state).
type region struct {
	n     int32
	nodes []netsim.NodeID
	// next[phase][u*n+d] is the out port on nodes[u] toward nodes[d]
	// (phase 0 = may still ascend, 1 = descending), -1 when unreachable.
	next [2][]int16
	// down[u*n+d] marks that the phase-0 step at u toward d takes a down
	// edge, i.e. the packet transitions to the descending phase.
	down []bool
}

// regionEdge is one alive directed link inside a region.
type regionEdge struct {
	to   int32 // local index of the far endpoint
	port int16 // out port index on the near endpoint
	up   bool
}

// buildRegion computes up*/down* next-hop tables for the given alive
// routers, writing each router's local index into the shared local table
// (regions partition the routers they cover). It returns ok=false when
// some ordered pair of region nodes has no legal path — the caller treats
// that as a partition.
func buildRegion(net *netsim.Network, ids []netsim.NodeID, local []int32) (*region, bool) {
	n := int32(len(ids))
	rg := &region{n: n, nodes: ids}
	for i, id := range ids {
		local[id] = int32(i)
	}

	// Alive adjacency, edges in out-port order for determinism.
	adj := make([][]regionEdge, n)
	radj := make([][]regionEdge, n) // reversed, for the backward BFS
	inRegion := func(id netsim.NodeID) bool {
		return local[id] >= 0 && local[id] < n && rg.nodes[local[id]] == id
	}
	for u := int32(0); u < n; u++ {
		r := net.Router(ids[u])
		for o, op := range net.OutPorts(r) {
			if op.Link < 0 || !net.LinkAlive(op.Link) || !inRegion(op.Dst) {
				continue
			}
			adj[u] = append(adj[u], regionEdge{to: local[op.Dst], port: int16(o)})
		}
	}

	// BFS-tree order from the lowest-ID node, over the undirected union of
	// the directed edges. Unreached nodes keep the sentinel level; every
	// pair involving them fails the reachability check below.
	const unreached = int32(1) << 30
	level := make([]int32, n)
	for i := range level {
		level[i] = unreached
	}
	undirected := make([][]int32, n)
	for u := range adj {
		for _, e := range adj[u] {
			undirected[u] = append(undirected[u], e.to)
			undirected[e.to] = append(undirected[e.to], int32(u))
		}
	}
	queue := make([]int32, 0, n)
	level[0] = 0
	queue = append(queue, 0)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range undirected[u] {
			if level[v] == unreached {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}

	// Classify edge directions: up = strictly smaller (level, router ID).
	upOf := func(u, v int32) bool {
		if level[v] != level[u] {
			return level[v] < level[u]
		}
		return ids[v] < ids[u]
	}
	for u := range adj {
		for i := range adj[u] {
			adj[u][i].up = upOf(int32(u), adj[u][i].to)
		}
	}
	for u := range adj {
		for _, e := range adj[u] {
			radj[e.to] = append(radj[e.to], regionEdge{to: int32(u), port: e.port, up: e.up})
		}
	}

	// Per-destination backward BFS over the two-phase legal-path automaton:
	// dist0[u] (may still ascend) and dist1[u] (descending only) are the
	// legal distances from u to d.
	rg.next[0] = make([]int16, n*n)
	rg.next[1] = make([]int16, n*n)
	rg.down = make([]bool, n*n)
	dist0 := make([]int32, n)
	dist1 := make([]int32, n)
	type state struct {
		u     int32
		phase int8
	}
	states := make([]state, 0, 2*n)
	for d := int32(0); d < n; d++ {
		for i := int32(0); i < n; i++ {
			dist0[i], dist1[i] = unreached, unreached
		}
		dist0[d], dist1[d] = 0, 0
		states = states[:0]
		states = append(states, state{d, 0}, state{d, 1})
		for len(states) > 0 {
			s := states[0]
			states = states[1:]
			var du int32
			if s.phase == 0 {
				du = dist0[s.u]
			} else {
				du = dist1[s.u]
			}
			// Relax predecessors: an up edge u→v keeps phase 0; a down edge
			// u→v may be taken from either phase and lands in phase 1.
			for _, e := range radj[s.u] {
				u := e.to
				if e.up {
					if s.phase == 0 && dist0[u] > du+1 {
						dist0[u] = du + 1
						states = append(states, state{u, 0})
					}
				} else if s.phase == 1 {
					if dist1[u] > du+1 {
						dist1[u] = du + 1
						states = append(states, state{u, 1})
					}
					if dist0[u] > du+1 {
						dist0[u] = du + 1
						states = append(states, state{u, 0})
					}
				}
			}
		}
		// Select next hops: lowest out-port index among distance minimizers.
		for u := int32(0); u < n; u++ {
			i0, i1 := u*n+d, u*n+d
			rg.next[0][i0], rg.next[1][i1] = -1, -1
			if u == d {
				continue
			}
			best0, best1 := unreached, unreached
			for _, e := range adj[u] {
				if e.up {
					if dist0[e.to] < best0 {
						best0 = dist0[e.to]
						rg.next[0][i0] = e.port
						rg.down[i0] = false
					}
				} else {
					if dist1[e.to] < best0 {
						best0 = dist1[e.to]
						rg.next[0][i0] = e.port
						rg.down[i0] = true
					}
					if dist1[e.to] < best1 {
						best1 = dist1[e.to]
						rg.next[1][i1] = e.port
					}
				}
			}
			if best0 == unreached {
				return nil, false // u cannot legally reach d
			}
		}
	}
	return rg, true
}

// step returns the out port at local node u toward local node d, given the
// packet's descending flag, and whether the packet is descending after the
// step.
func (rg *region) step(u, d int32, descending bool) (out int16, nowDescending bool) {
	i := u*rg.n + d
	if descending {
		return rg.next[1][i], true
	}
	return rg.next[0][i], rg.down[i]
}
