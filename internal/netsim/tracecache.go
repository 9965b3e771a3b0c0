package netsim

import "slices"

// The route-trace cache: traced flow paths keyed by (source node,
// destination node), owned by the network and kept across Reset so
// build-once/measure-many campaigns pay for each route exactly once.
//
// Entries share one slice and one path arena. The arena is a list of
// fixed-size slabs that are never moved or regrown: a path is written once,
// into the slab it fits in whole, and a full slab is followed by a new one.
// Every installed routing is fault-state routing (SetRoute installs one
// that ignores the state; see faultroute.go), so there is one model. The
// reference layer — the entries the key index points at — holds the traces
// of the state the routing was installed in: the churn base. Every other
// fault state the network enters gets a layer that stores deltas only:
// overlay entries for the pairs it routes differently from the reference
// entry, and a bitset of the reference entries it verified as identical. A state traces each pair once; a
// revisited state re-traces nothing.
//
// Validity is epoch-versioned. Full invalidation (SetRoute,
// SetFaultRouting, build-time faults, packet-size change, FlowCold) is O(1)
// for the reference layer: the epoch advances and every entry goes stale in
// place — the key index is kept, so a re-trace reuses the entry slot — and
// every state layer is emptied, its overlay entries compacted away. Churn
// batches and Reset invalidate nothing: they only switch layers.
//
// The key index is an open-addressing hash table of reference entry
// indices, probed linearly from the key's multiplicative hash and compared
// through the entries' own keys: 4 bytes a slot, its size a power of two
// kept at most 3/4 full.

// traceEntry is one cached route: the traced path as an arena offset and
// length (read with traceCache.pathOf), the uncontended base latency, and
// the per-class hop counts. ok=false entries cache route *failures* (refused pairs), so a
// persistently unroutable pair is not re-traced every solve.
type traceEntry struct {
	key   uint64
	epoch uint32 // reference entries: valid iff == traceCache.epoch
	off   int32
	n     int32
	// resv marks a reference entry whose trace is pending under a
	// non-reference state in the current flow build (== traceCache.resvGen).
	resv uint32
	// base is the uncontended latency in cycles; setCapacities refuses a
	// network whose longest trace would overflow it.
	base   int32
	hops   [NumHopClasses]uint16
	traced bool // reserved entries await tracing within the current build
	ok     bool
}

// traceLayer is one non-reference fault state's delta over the reference
// layer.
type traceLayer struct {
	over     map[uint64]int32 // pairs routed differently: key -> overlay entry
	verified []uint64         // bitset over entry indices: reference entries routed identically
}

func (l *traceLayer) has(i int32) bool {
	w := int(i >> 6)
	return w < len(l.verified) && l.verified[w]&(1<<uint(i&63)) != 0
}

func (l *traceLayer) verify(i int32) {
	w := int(i >> 6)
	if w >= len(l.verified) {
		l.verified = slices.Grow(l.verified, w+1-len(l.verified))[:w+1]
	}
	l.verified[w] |= 1 << uint(i&63)
}

// pathSlabBits sizes the path arena's slabs at 1<<pathSlabBits elements
// (64 KiB). A slab must hold the longest path, flowMaxHops elements; the
// unsigned constant below does not compile otherwise.
const (
	pathSlabBits = 14
	pathSlabLen  = 1 << pathSlabBits
	pathSlabMask = pathSlabLen - 1

	_ uint = pathSlabLen - flowMaxHops
)

// traceCache owns the entries, their key index, the shared path arena and
// the per-state layers.
type traceCache struct {
	// slots is the key index: a slot holds a reference entry's index plus
	// one, 0 when empty. Keys hash to slot key*indexHashMul>>shift.
	slots   []int32
	shift   uint8
	entries []traceEntry
	// slabs is the path arena; arena offset off is element off&pathSlabMask
	// of slab off>>pathSlabBits. pathEnd is the offset the next path is
	// placed at. Slabs outlive invalidation, which only rewinds pathEnd.
	slabs   [][]int32
	pathEnd int32
	epoch   uint32

	// state is the fault state flows are served for: 0 is the reference
	// layer, s > 0 reads layers[s] over it. overlays counts the overlay
	// entries in entries. resvGen stamps the pending traces of the current
	// flow build under a non-reference state.
	state    int32
	layers   []traceLayer
	overlays int
	resvGen  uint32
}

// pairKey packs a (source node, destination node) pair into the cache key.
func pairKey(src, dst NodeID) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// pairFromKey unpacks a cache key.
func pairFromKey(key uint64) (src, dst NodeID) {
	return NodeID(key >> 32), NodeID(uint32(key))
}

func newTraceCache() *traceCache {
	c := &traceCache{epoch: 1, resvGen: 1}
	c.sizeIndex(0)
	return c
}

// reserve presizes an empty cache's index and entries for n pairs, so a
// cold build inserts without growing them.
func (c *traceCache) reserve(n int) {
	c.sizeIndex(n)
	c.entries = make([]traceEntry, 0, n)
}

// indexHashMul is the multiplicative hash of the key index (2^64 over the
// golden ratio): the slot's bits are the top bits of the product.
const indexHashMul = 0x9E3779B97F4A7C15

// sizeIndex replaces the key index with an empty one for n keys: the
// smallest power of two of at least 8 slots that n fill at most 3/4.
func (c *traceCache) sizeIndex(n int) {
	b := 3
	for 3<<b < 4*n {
		b++
	}
	c.slots = make([]int32, 1<<b)
	c.shift = uint8(64 - b)
}

// find returns the index slot of key and the reference entry it holds, or
// the empty slot key would take and -1.
func (c *traceCache) find(key uint64) (slot int, ei int32) {
	mask := len(c.slots) - 1
	for s := int(key * indexHashMul >> c.shift); ; s = (s + 1) & mask {
		ei := c.slots[s] - 1
		if ei < 0 || c.entries[ei].key == key {
			return s, ei
		}
	}
}

// index enters new reference entry ei into the key index, first doubling
// the index when its key would fill it past 3/4.
func (c *traceCache) index(ei int32) {
	if refs := len(c.entries) - c.overlays; 4*refs > 3*len(c.slots) {
		old := c.slots
		c.sizeIndex(refs)
		for _, v := range old {
			if v > 0 {
				c.enter(v - 1)
			}
		}
	}
	c.enter(ei)
}

// enter puts entry ei in the empty slot its key probes to.
func (c *traceCache) enter(ei int32) {
	s, _ := c.find(c.entries[ei].key)
	c.slots[s] = ei + 1
}

// lookup returns the entry serving key under the current state. need
// reports that the caller must schedule a trace of it — exactly once per
// build: later lookups of the same key see the reservation. hit reports
// that the entry was already traced for this state.
//
// Under a non-reference state a pending pair is reserved on its reference
// index; the merge in tracePending then either verifies the reference entry
// or redirects the flows to a fresh overlay entry.
func (c *traceCache) lookup(key uint64) (ei int32, need, hit bool) {
	_, i := c.find(key)
	if i < 0 {
		i = int32(len(c.entries))
		c.entries = append(c.entries, traceEntry{key: key})
		c.index(i)
	}
	e := &c.entries[i]
	if c.state == 0 {
		if e.epoch == c.epoch {
			return i, false, e.traced
		}
		e.epoch = c.epoch
		e.traced = false
		return i, true, false
	}
	l := &c.layers[c.state]
	if l.has(i) {
		return i, false, true
	}
	if oi, ok := l.over[key]; ok {
		return oi, false, true
	}
	if e.resv == c.resvGen {
		return i, false, false
	}
	e.resv = c.resvGen
	return i, true, false
}

// span returns the n arena elements at offset off, which lie in one slab.
func (c *traceCache) span(off, n int32) []int32 {
	o := off & pathSlabMask
	return c.slabs[off>>pathSlabBits][o : o+n]
}

// pathOf returns entry e's traced path.
func (c *traceCache) pathOf(e *traceEntry) []int32 { return c.span(e.off, e.n) }

// place reserves n arena elements for a path and returns their offset. A
// path that would straddle a slab boundary starts the next slab instead,
// which is allocated when the arena has not reached it before.
func (c *traceCache) place(n int32) int32 {
	off := c.pathEnd
	if off&pathSlabMask+n > pathSlabLen {
		off = off&^pathSlabMask + pathSlabLen
	}
	if int(off>>pathSlabBits) == len(c.slabs) {
		c.slabs = append(c.slabs, make([]int32, pathSlabLen))
	}
	c.pathEnd = off + n
	return off
}

// set fills e with finished trace res, its path at arena offset off (a
// failed trace's path is never read).
func (e *traceEntry) set(off int32, res *traceResult) {
	e.off = off
	e.n = 0
	if res.ok {
		e.n = res.n
	}
	e.base = res.base
	e.hops = res.hops
	e.ok = res.ok
	e.traced = true
}

// merge records trace res of reference entry ei for the current state,
// which must not be the reference state (tracePending merges reference
// traces on the pool). It marks the reference entry verified when the
// traces agree, or appends an overlay entry, its path placed in the arena,
// and reports that flows reserved on ei must be redirected.
func (c *traceCache) merge(ei int32, res *traceResult, path []int32) (redirect bool) {
	l := &c.layers[c.state]
	ref := &c.entries[ei]
	if ref.epoch == c.epoch && ref.traced && ref.ok == res.ok &&
		(!res.ok || ref.base == res.base && ref.hops == res.hops &&
			slices.Equal(c.pathOf(ref), path)) {
		l.verify(ei)
		return false
	}
	oi := int32(len(c.entries))
	c.entries = append(c.entries, traceEntry{key: ref.key, epoch: c.epoch})
	off := int32(0)
	if res.ok {
		off = c.place(res.n)
		copy(c.span(off, res.n), path)
	}
	c.entries[oi].set(off, res)
	if l.over == nil {
		l.over = make(map[uint64]int32)
	}
	l.over[c.entries[oi].key] = oi
	c.overlays++
	return true
}

// redirect repoints the flows reserved on a reference entry that the
// current state routes differently at that state's overlay entry.
func (c *traceCache) redirect(flows []flowFlow) {
	l := &c.layers[c.state]
	for i := range flows {
		f := &flows[i]
		if f.entry < 0 {
			continue
		}
		if e := &c.entries[f.entry]; e.resv == c.resvGen && !l.has(f.entry) {
			f.entry = l.over[e.key]
		}
	}
}

// endBuild releases the current build's reservations.
func (c *traceCache) endBuild() {
	c.resvGen++
	if c.resvGen == 0 {
		for i := range c.entries {
			c.entries[i].resv = 0
		}
		c.resvGen = 1
	}
}

// setState points lookups at fault state s's layer.
func (c *traceCache) setState(s int32) {
	for int(s) >= len(c.layers) {
		c.layers = append(c.layers, traceLayer{})
	}
	c.state = s
}

// resetStates forgets every fault state (their numbering restarts with a
// new routing install); the caller invalidates the traces.
func (c *traceCache) resetStates() {
	c.layers = c.layers[:0]
	c.state = 0
}

// invalidateAll discards every cached trace: the reference layer in O(1)
// (stale entries never read their dangling offsets), every state layer
// emptied, and the overlay entries compacted out of the entry slice. When
// the epoch wraps, every entry's epoch is reset so none can match the
// restarted count; wrapped reports it, for the holders of epochs outside
// the cache.
func (c *traceCache) invalidateAll() (wrapped bool) {
	c.epoch++
	if c.epoch == 0 {
		for i := range c.entries {
			c.entries[i].epoch = 0
		}
		c.epoch, wrapped = 1, true
	}
	c.pathEnd = 0
	for i := range c.layers {
		clear(c.layers[i].over)
		clear(c.layers[i].verified)
	}
	if c.overlays == 0 {
		return wrapped
	}
	// A reference entry precedes every overlay entry of its key, and is the
	// entry the key index finds, so compaction moves each one down and
	// repoints its slot in the same pass.
	w := int32(0)
	for i := range c.entries {
		e := c.entries[i]
		s, ref := c.find(e.key)
		if ref != int32(i) {
			continue
		}
		c.entries[w] = e
		c.slots[s] = w + 1
		w++
	}
	c.entries = c.entries[:w]
	c.overlays = 0
	return wrapped
}
