// Package traffic implements the workloads of the paper's evaluation
// (Sec. V-A3): unicast permutation patterns (uniform, bit-reverse,
// bit-shuffle, bit-transpose), adversarial patterns (hotspot, worst-case),
// and collective patterns (unidirectional/bidirectional ring AllReduce and
// the per-step permutations of the collective schedules).
//
// Patterns are defined at chip granularity: Dest maps a source chip to a
// destination chip (or -1 for silence). Every pattern whose support is
// finite — a ring, a bidirectional ring, a schedule step — is one
// table-driven Permutation; the others draw their destinations. The Rate
// generator turns a pattern into a Bernoulli open-loop injection process at
// a configured rate in flits/cycle/chip, matching how the paper sweeps
// injection rates.
package traffic

import (
	"fmt"
	"math/bits"

	"sldf/internal/engine"
	"sldf/internal/netsim"
)

// Pattern maps a source chip to a destination chip, or to -1 when src does
// not transmit. Dest may draw from rng; implementations must be safe for
// concurrent calls with distinct rng streams.
type Pattern interface {
	Dest(src int32, rng *engine.RNG) int32
}

// Uniform sends every packet to a uniformly random chip other than the
// source, over chips [0, N).
type Uniform struct {
	N int32
}

// Dest implements Pattern.
//
//sldf:hotpath
func (u Uniform) Dest(src int32, rng *engine.RNG) int32 {
	if u.N < 2 || src < 0 || src >= u.N {
		return -1
	}
	for {
		d := rng.Int31n(u.N)
		if d != src {
			return d
		}
	}
}

// bitPermutation applies a permutation over the low B bits of the chip
// index, where B = floor(log2(N)). Chips at index >= 2^B (when N is not a
// power of two) fall back to uniform traffic, which keeps them active
// without breaking the permutation property of the main block — the
// standard treatment for non-power-of-two networks.
type bitPermutation struct {
	n    int32
	bits int
	perm func(v, b int) int
}

//sldf:hotpath
func (p bitPermutation) Dest(src int32, rng *engine.RNG) int32 {
	if src >= 1<<p.bits {
		return Uniform{N: p.n}.Dest(src, rng)
	}
	d := int32(p.perm(int(src), p.bits))
	if d == src {
		return -1 // self-traffic is dropped, as in standard traffic suites
	}
	return d
}

// BitReverse returns the bit-reversal permutation pattern over n chips.
func BitReverse(n int32) Pattern {
	b := log2floor(n)
	return bitPermutation{n: n, bits: b,
		perm: func(v, b int) int {
			return int(bits.Reverse32(uint32(v)) >> (32 - b))
		}}
}

// BitShuffle returns the perfect-shuffle (rotate-left-1) pattern.
func BitShuffle(n int32) Pattern {
	b := log2floor(n)
	return bitPermutation{n: n, bits: b,
		perm: func(v, b int) int {
			hi := (v >> (b - 1)) & 1
			return ((v << 1) | hi) & (1<<b - 1)
		}}
}

// BitTranspose returns the transpose pattern (swap high/low halves).
func BitTranspose(n int32) Pattern {
	b := log2floor(n)
	h := b / 2
	return bitPermutation{n: n, bits: b,
		perm: func(v, b int) int {
			lo := v & (1<<h - 1)
			hi := v >> h
			return lo<<(b-h) | hi
		}}
}

func log2floor(n int32) int {
	if n < 2 {
		return 1
	}
	return 31 - bits.LeadingZeros32(uint32(n))
}

// Hotspot confines communication to the chips of a set of W-groups: every
// chip of a hot group sends to a random chip in a (uniformly chosen) hot
// group; all other chips are silent. This is the paper's hotspot pattern
// with four hot W-groups.
type Hotspot struct {
	ChipsPerGroup int32
	HotGroups     []int32
}

// Dest implements Pattern.
//
//sldf:hotpath
func (h Hotspot) Dest(src int32, rng *engine.RNG) int32 {
	g := src / h.ChipsPerGroup
	hot := false
	for _, hg := range h.HotGroups {
		if g == hg {
			hot = true
			break
		}
	}
	if !hot {
		return -1
	}
	// Rejection-sample a destination, but bounded: with one hot group of a
	// single chip the only candidate is src itself and an unbounded loop
	// never terminates. Non-degenerate draw spaces exit on the first
	// accepted sample exactly as before (identical RNG consumption).
	for try := 0; try < 16; try++ {
		tg := h.HotGroups[rng.Intn(len(h.HotGroups))]
		d := tg*h.ChipsPerGroup + rng.Int31n(h.ChipsPerGroup)
		if d != src {
			return d
		}
	}
	// Fall back deterministically: the first hot-group chip that is not the
	// source, or silence when src is the entire hot set.
	for _, tg := range h.HotGroups {
		for c := int32(0); c < h.ChipsPerGroup; c++ {
			if d := tg*h.ChipsPerGroup + c; d != src {
				return d
			}
		}
	}
	return -1
}

// WorstCase is the Dragonfly adversarial pattern: every chip of W-group Wi
// sends to a random chip of W-group Wi+1, saturating the single global
// channel between adjacent groups under minimal routing.
type WorstCase struct {
	ChipsPerGroup int32
	Groups        int32
}

// Dest implements Pattern.
//
//sldf:hotpath
func (w WorstCase) Dest(src int32, rng *engine.RNG) int32 {
	if w.Groups < 2 {
		return -1
	}
	g := src / w.ChipsPerGroup
	tg := (g + 1) % w.Groups
	return tg*w.ChipsPerGroup + rng.Int31n(w.ChipsPerGroup)
}

// Permutation sends every packet of chip c to a fixed neighbour: Next[c],
// or, when the predecessor table Prev is set, Prev[c] or Next[c] with equal
// probability (each direction carries half the volume). It is the one
// pattern of finite support: rings (NewRing), bidirectional rings and the
// per-step permutations of the collective schedules. A chip mapped to
// itself or past the end of Next stays silent and draws no randomness.
type Permutation struct {
	Next []int32
	Prev []int32
}

// Dest implements Pattern.
//
//sldf:hotpath
func (p Permutation) Dest(src int32, rng *engine.RNG) int32 {
	if uint(src) >= uint(len(p.Next)) || p.Next[src] == src {
		return -1
	}
	if p.Prev != nil && rng.Bernoulli(0.5) {
		return p.Prev[src]
	}
	return p.Next[src]
}

// NewRing returns the ring over the chip sequence order, each chip sending
// to the one after it and the last to the first: the steady-state traffic
// of ring AllReduce. The order is the embedding (a snake across a mesh
// C-group keeps successors physically adjacent, as collective libraries
// schedule it). Bidirectional adds the predecessor table. Chips outside
// order, and the chip of a one-chip ring, stay silent. order must not
// repeat a chip.
func NewRing(order []int32, bidirectional bool) Permutation {
	p := Permutation{Next: IdentityMap(order)}
	if bidirectional {
		p.Prev = make([]int32, len(p.Next))
	}
	n := len(order)
	for i, c := range order {
		p.Next[c] = order[(i+1)%n]
		if p.Prev != nil {
			p.Prev[c] = order[(i+n-1)%n]
		}
	}
	return p
}

// IdentityMap returns a successor table covering every chip that appears
// in order, each mapped to itself: silent under Permutation until the
// caller fills in the chips that send.
func IdentityMap(order []int32) []int32 {
	n := int32(0)
	for _, c := range order {
		n = max(n, c+1)
	}
	m := make([]int32, n)
	for i := range m {
		m[i] = int32(i)
	}
	return m
}

// ByName constructs a standard pattern for n chips from its name.
// Supported: uniform, bit-reverse, bit-shuffle, bit-transpose.
func ByName(name string, n int32) (Pattern, error) {
	switch name {
	case "uniform":
		return Uniform{N: n}, nil
	case "bit-reverse", "bitreverse":
		return BitReverse(n), nil
	case "bit-shuffle", "bitshuffle":
		return BitShuffle(n), nil
	case "bit-transpose", "bittranspose":
		return BitTranspose(n), nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// filterDead drops packets aimed at dead chips.
type filterDead struct {
	p     Pattern
	alive []bool
}

// Dest implements Pattern: the wrapped pattern draws as usual (so RNG
// streams stay aligned with the pristine network), then destinations
// without a surviving terminal are silenced.
//
//sldf:hotpath
func (f filterDead) Dest(src int32, rng *engine.RNG) int32 {
	d := f.p.Dest(src, rng)
	if d >= 0 && (int(d) >= len(f.alive) || !f.alive[d]) {
		return -1
	}
	return d
}

// FilterDead wraps p so packets to chips marked dead (alive[c] == false)
// are dropped at the source, the open-loop analogue of a host refusing to
// address a failed die. A nil alive slice returns p unchanged.
func FilterDead(p Pattern, alive []bool) Pattern {
	if alive == nil {
		return p
	}
	return filterDead{p: p, alive: alive}
}

// Rate is an open-loop Bernoulli injection process: every injection node of
// every chip flips a coin each cycle so that the chip's expected offered
// load is FlitsPerChip flits/cycle, split evenly across its NodesPerChip
// injection nodes with PacketSize-flit packets.
type Rate struct {
	Pattern      Pattern
	FlitsPerChip float64
	PacketSize   int32
	NodesPerChip int
	prob         float64
	thresh       uint64
}

// Init (re)configures r in place and precomputes the per-node probability,
// letting a measurement loop reuse one Rate value across load points
// instead of allocating a generator per point.
func (r *Rate) Init(p Pattern, flitsPerChip float64, packetSize int32, nodesPerChip int) {
	*r = Rate{
		Pattern:      p,
		FlitsPerChip: flitsPerChip,
		PacketSize:   packetSize,
		NodesPerChip: nodesPerChip,
	}
	r.prob = flitsPerChip / float64(packetSize) / float64(nodesPerChip)
	r.thresh = engine.BernoulliThreshold(r.prob)
}

// NextDest implements netsim.Generator. The precomputed integer threshold
// decides bit-identically to rng.Bernoulli(prob) — this is the simulator's
// single hottest RNG call (every injector, every cycle). The prob<=0 and
// prob>=1 edges consume no randomness, exactly like Bernoulli.
//
//sldf:hotpath
func (r *Rate) NextDest(now int64, srcChip int32, nodeIdx int, rng *engine.RNG) int32 {
	if r.prob <= 0 {
		return -1
	}
	if r.prob < 1 && !rng.Hit(r.thresh) {
		return -1
	}
	return r.Pattern.Dest(srcChip, rng)
}

// InjectionRate implements netsim.BernoulliGenerator, letting the cycle
// engine inline the coin flip.
func (r *Rate) InjectionRate() (prob float64, thresh uint64) {
	return r.prob, r.thresh
}

// Dest implements netsim.BernoulliGenerator: the post-flip destination pick.
//
//sldf:hotpath
func (r *Rate) Dest(now int64, srcChip int32, nodeIdx int, rng *engine.RNG) int32 {
	return r.Pattern.Dest(srcChip, rng)
}

var _ netsim.BernoulliGenerator = (*Rate)(nil)

var _ netsim.Generator = (*Rate)(nil)

// Volume is a closed-volume generator for makespan experiments: each chip
// sends exactly TotalFlits flits (ceil to whole packets) following the
// pattern, as fast as injection admits, then stops. Remaining counters are
// per (chip, node) and therefore safe under shard-parallel generation.
type Volume struct {
	Pattern    Pattern
	PacketSize int32
	remaining  [][]int64 // [chip][node] packets left
}

// NewVolumePerChip builds a volume generator where chip c splits its
// TotalFlits across counts[c] injection nodes — the shape of a degraded
// network, where a chip that lost cores keeps fewer injectors but still
// owes the collective its full volume. A zero count silences the chip (a
// dead die owes nothing). participants, when non-nil, restricts the volume
// to the listed chips: everyone else starts exhausted, so Done() reflects
// only the chips the schedule actually involves. A nil participants charges
// every chip.
func NewVolumePerChip(p Pattern, totalFlits int64, packetSize int32, counts []int, participants []int32) *Volume {
	v := &Volume{Pattern: p, PacketSize: packetSize}
	v.remaining = make([][]int64, len(counts))
	active := make([]bool, len(counts))
	if participants == nil {
		for c := range active {
			active[c] = true
		}
	} else {
		for _, c := range participants {
			if int(c) < len(active) {
				active[c] = true
			}
		}
	}
	for c := range v.remaining {
		v.remaining[c] = make([]int64, counts[c])
		if !active[c] || counts[c] == 0 {
			continue
		}
		perNode := PacketsPerNode(totalFlits, counts[c], packetSize)
		for n := range v.remaining[c] {
			v.remaining[c][n] = perNode
		}
	}
	return v
}

// PacketsPerNode is the packet count each of a chip's nodes injects when
// the chip splits flits across nodes injectors in packetSize-flit packets:
// ceil(flits / (nodes·packetSize)). Both engines charge a collective step
// by this rule.
func PacketsPerNode(flits int64, nodes int, packetSize int32) int64 {
	denom := int64(nodes) * int64(packetSize)
	return (flits + denom - 1) / denom
}

// NextDest implements netsim.Generator.
//
//sldf:hotpath
func (v *Volume) NextDest(now int64, srcChip int32, nodeIdx int, rng *engine.RNG) int32 {
	if v.remaining[srcChip][nodeIdx] <= 0 {
		return -1
	}
	d := v.Pattern.Dest(srcChip, rng)
	if d >= 0 {
		v.remaining[srcChip][nodeIdx]--
	}
	return d
}

// Done reports whether every injection point exhausted its volume.
func (v *Volume) Done() bool {
	for _, per := range v.remaining {
		for _, n := range per {
			if n > 0 {
				return false
			}
		}
	}
	return true
}

var _ netsim.Generator = (*Volume)(nil)
