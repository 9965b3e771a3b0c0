package routing

import (
	"errors"
	"fmt"

	"sldf/internal/engine"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// ErrPartitioned is the sentinel matched (via errors.Is) by
// PartitionError: the injected faults disconnect some pair of alive
// terminals, so no fault-aware routing function exists.
var ErrPartitioned = errors.New("routing: faults partition the network")

// PartitionError reports where fault-aware route construction found the
// surviving network disconnected. Wraps ErrPartitioned.
type PartitionError struct {
	// Where names the disconnected structure, e.g. "C-group graph",
	// "C-group (2,1) mesh", "switch graph", "chip 7 terminal".
	Where string
}

// Error implements error.
func (e *PartitionError) Error() string {
	return fmt.Sprintf("routing: faults partition the network at %s", e.Where)
}

// Unwrap makes errors.Is(err, ErrPartitioned) work.
func (e *PartitionError) Unwrap() error { return ErrPartitioned }

// ErrDegradedVCs is the sentinel for fault sets whose detours need more
// virtual channels than the network provisions: the degraded diameter is
// too large for deadlock-free routing.
var ErrDegradedVCs = errors.New("routing: degraded paths exceed the provisioned virtual channels")

// DegradedVCError reports the VC shortfall. Wraps ErrDegradedVCs.
type DegradedVCError struct {
	Need        uint8
	Provisioned uint8
}

// Error implements error.
func (e *DegradedVCError) Error() string {
	return fmt.Sprintf("routing: degraded paths need %d VCs, network provisions %d", e.Need, e.Provisioned)
}

// Unwrap makes errors.Is(err, ErrDegradedVCs) work.
func (e *DegradedVCError) Unwrap() error { return ErrDegradedVCs }

// minProvisionedVCs returns the smallest VC count across alive links.
func minProvisionedVCs(net *netsim.Network) uint8 {
	min := uint8(255)
	for i := range net.Links {
		if id := int32(i); net.LinkAlive(id) && net.LinkSpec(id).VCs < min {
			min = net.LinkSpec(id).VCs
		}
	}
	return min
}

// ---------------------------------------------------------------------------
// Switch-less Dragonfly
// ---------------------------------------------------------------------------

// cgEdge is one usable external channel of the C-group graph.
type cgEdge struct {
	to   int32         // destination C-group index (w*AB + c)
	exit netsim.NodeID // owning port module on the source side
}

// FaultSLDFRouter routes packets on a switch-less Dragonfly with disabled
// components, generalizing Algorithm 1 to degraded topologies:
//
//   - Across C-groups, packets follow shortest paths on the C-group graph
//     (C-groups as nodes, alive local/global channels as edges), so a dead
//     cable is detoured through a third C-group or W-group.
//   - Inside each C-group, packets follow shortest up*/down* paths over the
//     surviving cores and port modules, so dead mesh links and dies are
//     detoured on a single virtual channel per traversal.
//   - One fresh VC per C-group traversal (Algorithm 1's invariant, tracked
//     in the packet's Phase field), so the VC index strictly increases
//     along any path and the channel dependency graph stays acyclic —
//     verified computationally by the fault property tests.
//
// Supported modes: Minimal and Valiant (an inter-W-group packet first
// routes to a uniformly random intermediate W-group). The reduced-VC
// scheme and the Adaptive/ValiantLower modes rely on geometric invariants
// that faults break, and are rejected.
//
// Construction fails with PartitionError when the surviving network
// disconnects some alive pair, and with DegradedVCError when degraded
// paths would need more VCs than the links provision.
type FaultSLDFRouter struct {
	s      *topology.SLDF
	mode   Mode
	groups int32
	ab     int32

	local   []int32   // router → local index within its C-group region
	regions []*region // per C-group

	// exitCG[cg*numCG+dst] is the port module that owns the next channel
	// on the shortest C-group path cg→dst (-1 when cg == dst).
	exitCG []netsim.NodeID
	// exitToW[cg*groups+w] is the port module toward the nearest C-group
	// of W-group w (-1 when cg is already in w).
	exitToW []netsim.NodeID
	// wActive[w] marks W-groups with surviving chips (Valiant only draws
	// intermediates from these).
	wActive []bool
	// admissible[cg*groups+w] marks detours from cg via w whose worst-case
	// traversal count fits the VC budget; detourCount[cg] counts them.
	// Valiant draws only admissible intermediates and falls back to
	// minimal routing when a source C-group has none.
	admissible  []bool
	detourCount []int32
	// distCG[u*numCG+d] is the C-group-graph distance u→d (cgUnreached when
	// either side is inactive); distToW/nextToW[u*groups+w] give the
	// distance and next C-group toward W-group w (Valiant only). Kept for
	// Sanitize, which must re-budget packets routed under older tables.
	distCG  []int32
	distToW []int32
	nextToW []int32
	// vcs is the worst-case C-group traversal count (the VC requirement).
	vcs uint8
}

// NewFaultSLDFRouter builds fault-aware routing for a switch-less
// Dragonfly whose network has disabled components (see
// netsim.Network.ApplyFaults). scheme/mode support: BaselineVC with
// Minimal or Valiant.
func NewFaultSLDFRouter(s *topology.SLDF, scheme Scheme, mode Mode) (*FaultSLDFRouter, error) {
	if scheme != BaselineVC {
		return nil, fmt.Errorf("routing: fault-aware SLDF routing requires the baseline VC scheme (got %s)", scheme)
	}
	if mode != Minimal && mode != Valiant {
		return nil, fmt.Errorf("routing: fault-aware SLDF routing supports minimal and valiant modes (got %s)", mode)
	}
	g := int32(s.Params.Groups())
	ab := int32(s.Params.AB)
	numCG := g * ab
	fr := &FaultSLDFRouter{
		s:      s,
		mode:   mode,
		groups: g,
		ab:     ab,
		local:  make([]int32, len(s.Net.Routers)),
	}
	for i := range fr.local {
		fr.local[i] = -1
	}

	// Per-C-group up*/down* regions over alive cores and usable ports. A
	// port module is usable only when both its SR stubs to the attach core
	// survive (a dead module or core takes its stubs down); an unusable
	// port is treated as dead, taking its external channel with it.
	usable := make([]bool, len(s.Net.Routers))
	portUsable := func(p *topology.PortInfo) bool {
		up := s.Net.OutPorts(s.Net.Router(p.AttachCore))[p.CoreToPort].Link
		down := s.Net.OutPorts(s.Net.Router(p.Node))[p.PortToCore].Link
		return s.Net.LinkAlive(up) && s.Net.LinkAlive(down)
	}
	// active[cg] marks C-groups with at least one alive core (every core
	// is a terminal, so this is also "has an alive chip"). A coreless
	// C-group can neither source packets nor transit them (its port
	// modules interconnect only through cores), so it is skipped rather
	// than declared a partition.
	fr.regions = make([]*region, numCG)
	active := make([]bool, numCG)
	for w := int32(0); w < g; w++ {
		for c := int32(0); c < ab; c++ {
			cg := &s.CGroups[w][c]
			var ids []netsim.NodeID
			for y := range cg.Cores {
				for x := range cg.Cores[y] {
					if id := cg.Cores[y][x]; s.Net.RouterAlive(id) {
						ids = append(ids, id)
					}
				}
			}
			if len(ids) == 0 {
				continue
			}
			active[w*ab+c] = true
			eachPort(cg, int(c), g > 1, func(p *topology.PortInfo) {
				if portUsable(p) {
					usable[p.Node] = true
					ids = append(ids, p.Node)
				}
			})
			rg, ok := buildRegion(s.Net, ids, fr.local)
			if !ok {
				return nil, &PartitionError{Where: fmt.Sprintf("C-group (%d,%d) mesh", w, c)}
			}
			fr.regions[w*ab+c] = rg
		}
	}

	// C-group graph over usable external channels.
	adj := make([][]cgEdge, numCG)
	channel := func(from int32, p *topology.PortInfo) {
		if !usable[p.Node] {
			return
		}
		op := s.Net.OutPorts(s.Net.Router(p.Node))[p.PortExt]
		if op.Link < 0 || !s.Net.LinkAlive(op.Link) || !usable[op.Dst] {
			return
		}
		adj[from] = append(adj[from], cgEdge{to: p.PeerW*ab + p.PeerC, exit: p.Node})
	}
	for w := int32(0); w < g; w++ {
		for c := int32(0); c < ab; c++ {
			cg := &s.CGroups[w][c]
			from := w*ab + c
			eachPort(cg, int(c), g > 1, func(p *topology.PortInfo) { channel(from, p) })
		}
	}

	// Shortest-path tables per destination C-group and per destination
	// W-group (the latter drives the Valiant detour's first phase). For
	// Valiant, eccPerW[e][w'] accumulates e's worst distance to any
	// C-group of W-group w', so the exact detour-path VC requirement can
	// be computed below.
	valiant := mode == Valiant && g > 2
	fr.exitCG = make([]netsim.NodeID, numCG*numCG)
	fr.distCG = make([]int32, numCG*numCG)
	for i := range fr.exitCG {
		fr.exitCG[i] = -1
		fr.distCG[i] = cgUnreached
	}
	bfs := newCGBFS(adj)
	dist := make([]int32, numCG)
	var eccPerW []int32
	if valiant {
		eccPerW = make([]int32, numCG*g)
	}
	maxTraversals := int32(1)
	for d := int32(0); d < numCG; d++ {
		if !active[d] {
			continue // no packet can target a coreless C-group
		}
		bfs.run([]int32{d}, dist)
		for u := int32(0); u < numCG; u++ {
			fr.exitCG[u*numCG+d] = -1
			if u == d && active[u] {
				fr.distCG[u*numCG+d] = 0
			}
			if u == d || !active[u] {
				continue
			}
			fr.distCG[u*numCG+d] = dist[u]
			if dist[u] >= cgUnreached {
				return nil, &PartitionError{Where: "C-group graph"}
			}
			if dist[u]+1 > maxTraversals {
				maxTraversals = dist[u] + 1
			}
			fr.exitCG[u*numCG+d], _ = nextExit(adj, dist, u)
			if valiant && dist[u] > eccPerW[u*g+d/ab] {
				eccPerW[u*g+d/ab] = dist[u]
			}
		}
	}
	if valiant {
		fr.wActive = make([]bool, g)
		fr.admissible = make([]bool, numCG*g)
		fr.detourCount = make([]int32, numCG)
		activeW := int32(0)
		for w := int32(0); w < g; w++ {
			for c := int32(0); c < ab; c++ {
				if active[w*ab+c] {
					fr.wActive[w] = true
					activeW++
					break
				}
			}
		}
		if activeW < 3 {
			// Fewer than three W-groups survive: every detour set stays
			// empty and Valiant degrades to minimal routing.
			valiant = false
		}
	}
	if valiant {
		fr.exitToW = make([]netsim.NodeID, numCG*g)
		fr.nextToW = make([]int32, numCG*g) // next C-group on the path to W w
		fr.distToW = make([]int32, numCG*g)
		for i := range fr.exitToW {
			// Initialized for every W-group, active or not: a stale packet
			// scratch naming an inactive intermediate must resolve to "no
			// exit", never to router 0.
			fr.exitToW[i] = -1
			fr.nextToW[i] = -1
			fr.distToW[i] = cgUnreached
		}
		nextToW, distToW := fr.nextToW, fr.distToW
		sources := make([]int32, 0, ab)
		for w := int32(0); w < g; w++ {
			if !fr.wActive[w] {
				continue // never drawn as an intermediate
			}
			sources = sources[:0]
			for c := int32(0); c < ab; c++ {
				sources = append(sources, w*ab+c)
			}
			bfs.run(sources, dist)
			for u := int32(0); u < numCG; u++ {
				distToW[u*g+w] = dist[u]
				if dist[u] == 0 || !active[u] {
					continue
				}
				if dist[u] >= cgUnreached {
					return nil, &PartitionError{Where: "C-group graph"}
				}
				fr.exitToW[u*g+w], nextToW[u*g+w] = nextExit(adj, dist, u)
			}
		}
		// Exact worst-case Valiant traversal count per (source C-group,
		// intermediate W-group). A detour path from u via W-group w visits
		// distToW(u,w)+1 C-groups reaching w's entry C-group e (determined
		// by the toW tables), then dist(e, dst) more toward a destination
		// outside w; the entry port's possible U-turn is itself the first
		// of those dist hops, so it adds no traversal. Detours that fit
		// the provisioned VC budget are admissible; on heavily degraded
		// networks where some detour would overflow, Valiant simply stops
		// drawing that intermediate (and falls back to minimal routing for
		// source C-groups with no admissible intermediate at all), so the
		// deadlock-freedom invariant — strictly increasing VC per
		// traversal — holds at any damage level that minimal routing
		// survives.
		budget := int32(minProvisionedVCs(s.Net))
		best := make([]int32, numCG)  // max over w' of eccPerW
		bestW := make([]int32, numCG) // its argmax
		second := make([]int32, numCG)
		for u := int32(0); u < numCG; u++ {
			bestW[u] = -1
			for w := int32(0); w < g; w++ {
				if e := eccPerW[u*g+w]; e > best[u] {
					second[u] = best[u]
					best[u], bestW[u] = e, w
				} else if e > second[u] {
					second[u] = e
				}
			}
		}
		for u := int32(0); u < numCG; u++ {
			if !active[u] {
				continue
			}
			wu := u / ab
			for w := int32(0); w < g; w++ {
				if w == wu || !fr.wActive[w] {
					continue
				}
				e := u // entry C-group: chase the toW pointers
				for e/ab != w {
					e = nextToW[e*g+w]
				}
				ecc := best[e]
				if bestW[e] == w {
					ecc = second[e] // destinations never lie in the detour W
				}
				v := distToW[u*g+w] + ecc + 1
				if v > budget {
					continue
				}
				fr.admissible[u*g+w] = true
				fr.detourCount[u]++
				if v > maxTraversals {
					maxTraversals = v
				}
			}
		}
	}
	if maxTraversals > 255 {
		maxTraversals = 255
	}
	fr.vcs = uint8(maxTraversals)
	if prov := minProvisionedVCs(s.Net); fr.vcs > prov {
		return nil, &DegradedVCError{Need: fr.vcs, Provisioned: prov}
	}
	return fr, nil
}

// eachPort visits every external port of a C-group in label order; global
// ports are skipped on single-W-group systems (they are unbuilt).
func eachPort(cg *topology.CGroupInfo, c int, globals bool, f func(*topology.PortInfo)) {
	for peer := range cg.LocalPorts {
		if peer == c {
			continue
		}
		f(&cg.LocalPorts[peer])
	}
	if globals {
		for j := range cg.GlobalPorts {
			f(&cg.GlobalPorts[j])
		}
	}
}

const cgUnreached = int32(1) << 30

// cgBFS runs breadth-first searches toward destination C-groups over the
// C-group graph's reversed edges. The graph is built from bidirectional
// channels whose directions fail together, plus per-direction explicit
// faults; BFS therefore runs over reversed edges to honor direction
// asymmetry. The reversed edges and the queue are built once per router
// build and shared by every search.
type cgBFS struct {
	radj  [][]int32
	queue []int32
}

// newCGBFS reverses the C-group graph adj.
func newCGBFS(adj [][]cgEdge) *cgBFS {
	b := &cgBFS{radj: make([][]int32, len(adj)), queue: make([]int32, 0, len(adj))}
	for u := range adj {
		for _, e := range adj[u] {
			b.radj[e.to] = append(b.radj[e.to], int32(u))
		}
	}
	return b
}

// run fills dist with hop counts to the nearest of the given destination
// C-groups.
func (b *cgBFS) run(dsts []int32, dist []int32) {
	for i := range dist {
		dist[i] = cgUnreached
	}
	queue := b.queue[:0]
	for _, d := range dsts {
		dist[d] = 0
		queue = append(queue, d)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range b.radj[v] {
			if dist[u] == cgUnreached {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	b.queue = queue
}

// nextExit picks u's exit channel along a shortest path — the first edge
// in adjacency (label) order whose far end is strictly closer — returning
// the owning port and the far C-group.
func nextExit(adj [][]cgEdge, dist []int32, u int32) (netsim.NodeID, int32) {
	for _, e := range adj[u] {
		if dist[e.to] == dist[u]-1 {
			return e.exit, e.to
		}
	}
	return -1, -1
}

// VCs returns the virtual channels the degraded configuration requires
// (the worst-case C-group traversal count).
func (fr *FaultSLDFRouter) VCs() uint8 { return fr.vcs }

// Install sets the routing function on the network.
func (fr *FaultSLDFRouter) Install(net *netsim.Network) { net.SetRoute(fr.Func()) }

// exitOf resolves the packet's exit port from C-group cg: toward the
// intermediate W-group aux when one is pending, else toward dstCG (-1 when
// the packet is home).
func (fr *FaultSLDFRouter) exitOf(cg, dstCG, aux int32) netsim.NodeID {
	if aux >= 0 {
		return fr.exitToW[cg*fr.groups+aux]
	}
	if cg != dstCG {
		return fr.exitCG[cg*int32(len(fr.regions))+dstCG]
	}
	return -1
}

// Func returns the netsim routing function.
//
// Per-packet scratch conventions (all mutations happen on non-ideal
// routers, where the routing function runs exactly once per visit):
// Phase is the 0-based C-group traversal index and the VC of every hop
// inside the current C-group; Aux is the pending Valiant intermediate
// W-group (-1 when none); Aux2 is -1 until first touch, then bit 0 marks
// initialization and bit 1 the up*/down* descending phase (reset on every
// C-group entry).
func (fr *FaultSLDFRouter) Func() netsim.RouteFunc {
	return func(net *netsim.Network, r *netsim.Router, p *netsim.Packet) (int, uint8) {
		if p.Aux2 < 0 {
			// First touch, at the source core.
			p.Aux2 = 1
			p.Phase = 0
			p.Aux = -1
			if fr.mode == Valiant && fr.groups > 2 {
				if d := net.Router(p.DstNode); d.WGroup != r.WGroup {
					p.Aux = fr.pickValiant(p.RouteRNG(net, r), r.WGroup*fr.ab+r.CGroup, r.WGroup, d.WGroup)
				}
			}
		}
		if p.Aux >= 0 && r.WGroup == p.Aux {
			p.Aux = -1 // arrived in the intermediate W-group
		}
		d := net.Router(p.DstNode)
		cg := r.WGroup*fr.ab + r.CGroup
		dstCG := d.WGroup*fr.ab + d.CGroup

		if r.Kind == netsim.KindPort {
			if p.VC == p.Phase+1 {
				// Arrived on the external channel: a new traversal begins.
				p.Phase++
				p.Aux2 = 1
			}
			exit := fr.exitOf(cg, dstCG, p.Aux)
			if exit == r.ID {
				// This port owns the packet's next channel (possibly a
				// U-turn at a Valiant phase switch): go external on the
				// next traversal's VC.
				return portOutExternal, p.Phase + 1
			}
			return fr.regionStep(r, p, exit)
		}

		// Core router.
		if r.ID == p.DstNode {
			return int(r.EjectOut), 0
		}
		exit := fr.exitOf(cg, dstCG, p.Aux)
		return fr.regionStep(r, p, exit)
	}
}

// regionStep advances the packet inside its current C-group along the
// region's up*/down* tables: toward its exit port module, or toward the
// destination core when the packet is home (exit < 0).
func (fr *FaultSLDFRouter) regionStep(r *netsim.Router, p *netsim.Packet, exit netsim.NodeID) (int, uint8) {
	target := exit
	if target < 0 {
		target = p.DstNode
	}
	rg := fr.regions[r.WGroup*fr.ab+r.CGroup]
	out, descending := rg.step(fr.local[r.ID], fr.local[target], p.Aux2&2 != 0)
	if descending && p.Aux2&2 == 0 {
		p.Aux2 |= 2
	}
	return int(out), p.Phase
}

// pickValiant draws a uniform intermediate W-group different from the
// source and destination, among the source C-group's admissible detours.
// Returns -1 (minimal fallback) when none exists.
func (fr *FaultSLDFRouter) pickValiant(rng *engine.RNG, cg, ws, wd int32) int32 {
	n := fr.detourCount[cg]
	if n == 0 {
		return -1
	}
	if n <= 2 {
		// The admissible set may be entirely excluded by ws/wd: enumerate.
		var cands []int32
		for w := int32(0); w < fr.groups; w++ {
			if w != ws && w != wd && fr.admissible[cg*fr.groups+w] {
				cands = append(cands, w)
			}
		}
		if len(cands) == 0 {
			return -1
		}
		return cands[rng.Intn(len(cands))]
	}
	for {
		aux := int32(rng.Intn(int(fr.groups)))
		if aux != ws && aux != wd && fr.admissible[cg*fr.groups+aux] {
			return aux
		}
	}
}

// Sanitize returns the keep-predicate for netsim.SanitizeInFlight after
// this router replaced an older one mid-run (live churn). A surviving
// packet's scratch state was written under the previous component set, so
// the predicate repairs what it can and retires what it cannot:
//
//   - a pending Valiant intermediate (Aux) pointing at a W-group the new
//     tables cannot reach is cleared — the packet continues minimally;
//   - a packet stranded outside every routable region (e.g. inside a port
//     module whose SR stub died) is dropped;
//   - a packet whose remaining C-group traversals no longer fit the VC
//     budget from its current VC is dropped — continuing it would either
//     overflow the provisioned VCs or break the strictly-increasing-VC
//     deadlock invariant;
//   - a descending up*/down* packet with no legal descending path to its
//     (possibly re-chosen) region target under the new labels is dropped.
//
// The predicate mirrors Func's per-visit reads without advancing any state
// other than these repairs, so a kept packet is guaranteed to route on its
// next allocation.
func (fr *FaultSLDFRouter) Sanitize() func(r *netsim.Router, p *netsim.Packet) bool {
	numCG := int32(len(fr.regions))
	net := fr.s.Net
	return func(r *netsim.Router, p *netsim.Packet) bool {
		if fr.local[r.ID] < 0 || fr.regions[r.WGroup*fr.ab+r.CGroup] == nil {
			return false // current position is outside every routable region
		}
		cg := r.WGroup*fr.ab + r.CGroup
		d := net.Router(p.DstNode)
		dstCG := d.WGroup*fr.ab + d.CGroup
		if fr.local[p.DstNode] < 0 {
			return false
		}

		// Repair the Valiant scratch: clear intermediates the new tables
		// cannot serve (the packet then heads straight for its destination).
		aux := p.Aux
		if aux >= 0 {
			if r.WGroup == aux {
				aux = -1 // Func clears this on arrival anyway
			} else if fr.exitToW == nil || aux >= fr.groups || !fr.wActive[aux] ||
				fr.distToW[cg*fr.groups+aux] >= cgUnreached {
				aux = -1
			}
			p.Aux = aux
		}

		// Re-budget: the VC indices still ahead of the packet are
		// phi..phi+t, where phi is its effective current traversal index
		// and t the remaining C-group crossings under the new tables.
		phi := int32(p.Phase)
		bump := r.Kind == netsim.KindPort && p.Aux2 >= 0 && p.VC == p.Phase+1
		if bump {
			phi++
		}
		var t int32
		if aux >= 0 {
			e := cg // entry C-group of the detour W-group
			for e/fr.ab != aux {
				e = fr.nextToW[e*fr.groups+aux]
				if e < 0 {
					return false
				}
			}
			dcd := fr.distCG[e*numCG+dstCG]
			if dcd >= cgUnreached {
				return false
			}
			t = fr.distToW[cg*fr.groups+aux] + dcd
		} else {
			t = fr.distCG[cg*numCG+dstCG]
			if t >= cgUnreached {
				return false
			}
		}
		if phi+t >= int32(fr.vcs) {
			return false
		}

		// The immediate next step must exist. Mirror Func: ports owning the
		// packet's next channel go external; everything else takes a region
		// step, which can dead-end for packets already descending under the
		// old up*/down* labels.
		if r.Kind == netsim.KindCore && r.ID == p.DstNode {
			return true // ejects
		}
		exit := fr.exitOf(cg, dstCG, aux)
		if r.Kind == netsim.KindPort && exit == r.ID {
			return true // goes external on an alive channel by construction
		}
		target := exit
		if target < 0 {
			target = p.DstNode
		}
		lu, lt := fr.local[r.ID], fr.local[target]
		if lt < 0 {
			return false
		}
		rg := fr.regions[cg]
		if lt >= rg.n || rg.nodes[lt] != target || lu >= rg.n || rg.nodes[lu] != r.ID {
			return false // position and target are not in the same region
		}
		descending := p.Aux2 >= 0 && p.Aux2&2 != 0 && !bump
		out, _ := rg.step(lu, lt, descending)
		return out >= 0
	}
}

// AuxChoices returns every intermediate W-group the router may draw for a
// packet srcChip→dstChip, or {-1} when it routes minimally (same W-group,
// minimal mode, or no admissible detour). The property tests use it to
// trace every path the router can produce.
func (fr *FaultSLDFRouter) AuxChoices(srcChip, dstChip int32) []int32 {
	if fr.mode != Valiant || fr.groups <= 2 {
		return []int32{-1}
	}
	ws, cs, _ := fr.s.ChipLocation(srcChip)
	wd, _, _ := fr.s.ChipLocation(dstChip)
	if ws == wd {
		return []int32{-1}
	}
	cg := int32(ws)*fr.ab + int32(cs)
	var out []int32
	for w := int32(0); w < fr.groups; w++ {
		if w != int32(ws) && w != int32(wd) && fr.admissible[cg*fr.groups+w] {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		return []int32{-1}
	}
	return out
}
