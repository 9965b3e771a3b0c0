package netsim

import (
	"fmt"
	"math"
	"slices"

	"sldf/internal/engine"
)

// LinkSpec describes the physical and flow-control properties of a channel.
type LinkSpec struct {
	Delay int32 // wire latency in cycles
	Width int32 // bandwidth in flits/cycle
	Class HopClass
	VCs   uint8 // virtual channels on the downstream input port
	// BufFlits is the buffer depth per VC in flits (paper Table IV: 32).
	BufFlits int32
}

// Builder incrementally constructs a Network. Topology packages call
// AddRouter/Connect and then Finalize. Builders are single-use.
//
// Construction is allocation-lean by design: links accumulate as values and
// ports exist only as per-router counts (Router.nIn/nOut) until Finalize. A
// topology that reserves its exact size with Grow has its router and link
// tables adopted by the network as they are; Finalize lays both port slabs
// out at exact size. Append-growth overshoot never survives into the
// network, and state only the cycle engines read is not built here at all.
type Builder struct {
	routers  []Router
	links    []Link
	specs    []LinkSpec
	lastSpec int
	err      error
}

// maxLinkSpecs bounds the distinct LinkSpecs of one network: Link.Spec is a
// byte, and the flow solver gives each spec an element kind of its own
// beside the ejection port's (see flowSolver.setCapacities).
const maxLinkSpecs = 255

// NewBuilder returns an empty network builder.
func NewBuilder() *Builder {
	return &Builder{}
}

// AddRouter appends a router of the given kind and returns its ID.
// Metadata (coordinates, chip, label) is set through Router().
func (b *Builder) AddRouter(kind RouterKind) NodeID {
	id := NodeID(len(b.routers))
	b.routers = append(b.routers, Router{
		ID:       id,
		Kind:     kind,
		CGroup:   -1,
		WGroup:   -1,
		Chip:     -1,
		Label:    -1,
		InjIn:    -1,
		EjectOut: -1,
	})
	return id
}

// Router returns a pointer to the router under construction. The pointer is
// valid until the next AddRouter call.
func (b *Builder) Router(id NodeID) *Router { return &b.routers[id] }

// NumRouters returns the number of routers added so far.
func (b *Builder) NumRouters() int { return len(b.routers) }

// Connect creates a unidirectional link src→dst and returns the output port
// index on src and the input port index on dst.
func (b *Builder) Connect(src, dst NodeID, spec LinkSpec) (outPort, inPort int) {
	if spec.Delay < 1 {
		b.fail("link %d→%d: delay must be >= 1 (got %d)", src, dst, spec.Delay)
		spec.Delay = 1
	}
	if spec.Width < 1 || spec.VCs < 1 || spec.BufFlits < 1 {
		b.fail("link %d→%d: invalid spec %+v", src, dst, spec)
		return 0, 0
	}
	if spec.VCs > 8 {
		// The per-port occupancy bitmask is 8 bits wide; no evaluated
		// scheme needs more than 6 VCs.
		b.fail("link %d→%d: at most 8 VCs supported (got %d)", src, dst, spec.VCs)
		return 0, 0
	}
	if b.routers[src].nOut == math.MaxInt16 || b.routers[dst].nIn == math.MaxInt16 {
		b.fail("link %d→%d: more than %d ports on a router", src, dst, math.MaxInt16)
		return 0, 0
	}
	// Topologies connect runs of links of one spec, so the last spec used
	// is tried before the table is searched.
	si := b.lastSpec
	if si >= len(b.specs) || b.specs[si] != spec {
		si = slices.Index(b.specs, spec)
	}
	if si < 0 {
		if len(b.specs) == maxLinkSpecs {
			b.fail("link %d→%d: more than %d distinct link specs", src, dst, maxLinkSpecs)
			return 0, 0
		}
		si = len(b.specs)
		b.specs = append(b.specs, spec)
	}
	b.lastSpec = si
	outPort = int(b.routers[src].nOut)
	b.routers[src].nOut++
	inPort = int(b.routers[dst].nIn)
	b.routers[dst].nIn++

	// The ports themselves are laid out in Finalize, once the slab sizes
	// are known.
	b.links = append(b.links, Link{
		Src:     src,
		Dst:     dst,
		SrcPort: int16(outPort),
		DstPort: int16(inPort),
		Spec:    uint8(si),
		Class:   spec.Class,
	})
	return outPort, inPort
}

// ConnectBidi creates a pair of opposite links between a and b with the same
// spec, returning (a's out port, b's out port).
func (b *Builder) ConnectBidi(x, y NodeID, spec LinkSpec) (xOut, yOut int) {
	xOut, _ = b.Connect(x, y, spec)
	yOut, _ = b.Connect(y, x, spec)
	return xOut, yOut
}

// AddTerminal marks router id as the injection/ejection point for chip,
// with nodeIdx as its local index within the chip. It creates the injection
// and ejection pseudo-ports.
func (b *Builder) AddTerminal(id NodeID, chip int32, nodeIdx int32) {
	r := &b.routers[id]
	if r.InjIn >= 0 || r.EjectOut >= 0 {
		b.fail("router %d: terminal added twice", id)
		return
	}
	r.Chip = chip
	r.Local = nodeIdx
	r.InjIn = r.nIn
	r.nIn++
	r.EjectOut = r.nOut
	r.nOut++
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first construction error, if any.
func (b *Builder) Err() error { return b.err }

// Grow reserves room for routers more routers and links more links, so a
// topology that knows its size up front builds without append-growth
// garbage. When the reservation is exact, Finalize adopts the builder's
// router and link tables as the network's own instead of copying them; a
// wrong count costs a copy, never correctness.
func (b *Builder) Grow(routers, links int) {
	b.routers = grow(b.routers, routers)
	b.links = grow(b.links, links)
}

// grow returns s with capacity for exactly n more elements. Unlike
// slices.Grow it never rounds the capacity up to an allocator size class,
// which would defeat Finalize's exact-size adoption.
func grow[T any](s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	ns := make([]T, len(s), len(s)+n)
	copy(ns, s)
	return ns
}

// exact returns s itself when it has no spare capacity, else an exact-size
// copy: append-growth overshoot in a builder slice must not survive into
// the network.
func exact[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	ns := make([]T, len(s))
	copy(ns, s)
	return ns
}

// Finalize validates the graph and produces a network ready for the flow
// solver. The cycle engines' per-port and per-shard state is allocated on
// first use (see Network.ensureCycleState), so a flow-only network never
// pays for it.
func (b *Builder) Finalize(opts NetworkOptions) (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.routers) == 0 {
		return nil, fmt.Errorf("netsim: empty network")
	}

	// Group terminal routers by chip with a counting pass straight into one
	// backing array. Routers are visited in ascending ID order, so every
	// chip's list comes out sorted.
	nchips := int32(0)
	for i := range b.routers {
		if r := &b.routers[i]; r.Chip >= 0 && r.InjIn >= 0 {
			nchips = max(nchips, r.Chip+1)
		}
	}
	offset := make([]int32, nchips+1)
	for i := range b.routers {
		if r := &b.routers[i]; r.Chip >= 0 && r.InjIn >= 0 {
			offset[r.Chip+1]++
		}
	}
	for c := int32(1); c <= nchips; c++ {
		offset[c] += offset[c-1]
	}
	termSlab := make([]NodeID, offset[nchips])
	chips := make([][]NodeID, nchips)
	for c := range chips {
		chips[c] = termSlab[offset[c]:offset[c]:offset[c+1]]
	}
	for i := range b.routers {
		if r := &b.routers[i]; r.Chip >= 0 && r.InjIn >= 0 {
			chips[r.Chip] = append(chips[r.Chip], r.ID)
		}
	}
	for c, nodes := range chips {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("netsim: chip %d has no terminal routers", c)
		}
		// Local index must match position for DstSameIndex to be meaningful.
		for idx, id := range nodes {
			b.routers[id].Local = int32(idx)
		}
	}

	pool := engine.NewPool(opts.Workers)
	wd := opts.WatchdogCycles
	if wd <= 0 {
		wd = DefaultWatchdogCycles
	}
	n := &Network{
		Routers:       exact(b.routers),
		Links:         exact(b.links),
		specs:         slices.Clip(b.specs),
		ChipNodes:     chips,
		pool:          pool,
		shards:        max(pool.Workers(), 1),
		seed:          opts.Seed,
		packetSize:    4,
		watchdogLimit: wd,
	}
	n.shard = make([]shardStats, n.shards)
	// Lay every router's ports out in two network-wide slabs, router after
	// router, at exact size from the per-router counts. Ports no link
	// claims are the terminal pseudo-ports.
	var totIn, totOut int32
	for i := range n.Routers {
		r := &n.Routers[i]
		r.inOff, r.outOff = totIn, totOut
		totIn += int32(r.nIn)
		totOut += int32(r.nOut)
	}
	n.inLinks = make([]int32, totIn)
	n.outPorts = make([]OutPort, totOut)
	for i := range n.inLinks {
		n.inLinks[i] = -1
	}
	for i := range n.outPorts {
		n.outPorts[i] = OutPort{Link: -1, Dst: -1}
	}
	for i := range n.Links {
		l := &n.Links[i]
		n.outPorts[n.Routers[l.Src].outOff+int32(l.SrcPort)] = OutPort{Link: int32(i), Dst: l.Dst}
		n.inLinks[n.Routers[l.Dst].inOff+int32(l.DstPort)] = int32(i)
	}
	n.initPhases()
	b.routers = nil
	b.links = nil
	b.specs = nil
	return n, nil
}
