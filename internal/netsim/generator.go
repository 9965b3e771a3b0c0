package netsim

import "sldf/internal/engine"

// Generator decides, for every injection node on every cycle, whether to
// create a packet and where to send it.
//
// NextDest may be called concurrently for different (srcChip, nodeIdx)
// pairs; implementations must keep any mutable state confined per
// (chip, node) slot or be stateless. The rng passed in is the injection
// node's own deterministic stream.
type Generator interface {
	// NextDest returns the destination chip for a packet injected this cycle
	// by injection node nodeIdx of srcChip, or -1 to inject nothing.
	NextDest(now int64, srcChip int32, nodeIdx int, rng *engine.RNG) int32
}

// GeneratorFunc adapts a function to the Generator interface.
type GeneratorFunc func(now int64, srcChip int32, nodeIdx int, rng *engine.RNG) int32

// NextDest calls f.
func (f GeneratorFunc) NextDest(now int64, srcChip int32, nodeIdx int, rng *engine.RNG) int32 {
	return f(now, srcChip, nodeIdx, rng)
}

// BernoulliGenerator is an optional Generator specialization for open-loop
// Bernoulli injection. When a generator implements it, the cycle engine
// inlines the per-injector coin flip — the single hottest generator call —
// and pays the dynamic Dest dispatch only for the injectors whose flip
// succeeded. The contract mirrors Generator.NextDest built from these
// parts: prob <= 0 never injects and consumes no randomness; prob >= 1
// always injects without a flip; otherwise one rng.Hit(thresh) draw decides.
// Dest returns the destination chip, or -1 to inject nothing after all.
type BernoulliGenerator interface {
	Generator
	// InjectionRate returns the per-node-cycle injection probability and
	// its engine.BernoulliThreshold.
	InjectionRate() (prob float64, thresh uint64)
	// Dest picks the destination chip after a successful flip.
	Dest(now int64, srcChip int32, nodeIdx int, rng *engine.RNG) int32
}

// DstNodePolicy selects which node of the destination chip receives a packet.
type DstNodePolicy uint8

const (
	// DstSameIndex delivers to the node with the same local index as the
	// injecting node (cores are paired across chips).
	DstSameIndex DstNodePolicy = iota
)
