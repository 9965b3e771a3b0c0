// Package collective models the collective-communication algorithms the
// paper uses to motivate the switch-less C-group (Sec. III-B4, Fig. 4):
// ring AllReduce and the 2D row-column algorithm. Algorithms are expressed
// as sequences of steps; each step is a fixed-volume traffic phase whose
// makespan is measured on the simulator, so the O(N) vs O(√N) step-count
// behaviour of Fig. 4 appears as end-to-end cycles.
//
// The package is declared deterministic: results feed figures, caches and
// the bitwise serial==parallel==cached equality contract, so sldfcheck
// flags map iteration, global RNG and wall-clock reads in non-test code.
//
//sldf:deterministic
package collective

import (
	"errors"
	"fmt"

	"sldf/internal/engine"
	"sldf/internal/netsim"
	"sldf/internal/traffic"
)

// ErrPartitioned reports that a schedule cannot be built because faults
// leave fewer than two participants able to communicate — there is no
// collective to run. Callers match it with errors.Is.
var ErrPartitioned = errors.New("collective: fewer than two alive participants")

// Step is one dependent phase of a collective: every participating chip
// sends Flits flits according to Pattern before the next step may begin.
type Step struct {
	Pattern traffic.Pattern
	Flits   int64
	// Participants lists the chips that transmit during this step; nil means
	// every chip of the network. Steps that involve only a subset (a
	// hierarchical phase, a schedule re-routed around dead chips) must list
	// it, or the step barrier would wait forever on chips with nothing to
	// send.
	Participants []int32
}

// Schedule is an ordered list of dependent steps.
type Schedule struct {
	Name  string
	Steps []Step
}

// RingAllReduce returns the classic ring schedule over the chip sequence
// `order`: 2(N−1) steps (reduce-scatter then all-gather), each moving
// volume/N flits per chip to its ring successor.
func RingAllReduce(order []int32, volume int64) Schedule {
	return ringPasses("ring-allreduce", order, volume, 2)
}

// ReduceScatter returns the ring reduce-scatter half of the AllReduce:
// N−1 steps, each moving volume/N flits per chip to its ring successor,
// after which every chip holds one fully reduced shard.
func ReduceScatter(order []int32, volume int64) Schedule {
	return ringPasses("reduce-scatter", order, volume, 1)
}

// AllGather returns the ring all-gather half: N−1 steps of volume/N flits
// per chip, circulating every shard to every participant.
func AllGather(order []int32, volume int64) Schedule {
	return ringPasses("all-gather", order, volume, 1)
}

// ringPasses is the shared shape of the ring schedules: passes trips
// around the ring of N−1 steps each, every step moving volume/N flits per
// chip to its ring successor.
func ringPasses(name string, order []int32, volume int64, passes int) Schedule {
	n := len(order)
	if n < 2 {
		return Schedule{Name: name}
	}
	chunk := (volume + int64(n) - 1) / int64(n)
	ring := traffic.NewRing(order, false)
	steps := make([]Step, passes*(n-1))
	for i := range steps {
		steps[i] = Step{Pattern: ring, Flits: chunk, Participants: order}
	}
	return Schedule{Name: name, Steps: steps}
}

// AllToAll returns the rotation (shift) schedule for an all-to-all
// personalized exchange: N−1 steps; in step k every participant i sends its
// volume/N chunk destined for participant (i+k) mod N directly. Unlike the
// ring schedules, each step is a different permutation, exercising the
// network's bisection rather than neighbour links.
func AllToAll(order []int32, volume int64) Schedule {
	n := len(order)
	if n < 2 {
		return Schedule{Name: "all-to-all"}
	}
	chunk := (volume + int64(n) - 1) / int64(n)
	steps := make([]Step, 0, n-1)
	for k := 1; k < n; k++ {
		perm := traffic.IdentityMap(order)
		for i, c := range order {
			perm[c] = order[(i+k)%n]
		}
		steps = append(steps, Step{
			Pattern:      traffic.Permutation{Next: perm},
			Flits:        chunk,
			Participants: order,
		})
	}
	return Schedule{Name: "all-to-all", Steps: steps}
}

// HierarchicalAllReduce returns the two-level schedule over equally sized
// chip groups (the W-groups of a Dragonfly, or sub-blocks of a flat
// system): an intra-group ring reduce-scatter, a ring AllReduce of each
// shard slot across the groups, then an intra-group all-gather. With G
// groups of m chips it needs 2(m−1) + 2(G−1) dependent steps instead of
// the flat ring's 2(Gm−1), yet moves exactly the same per-chip volume —
// 2(Gm−1)/(Gm)·V when V divides evenly — because the inter-group phase
// operates on 1/m shards. Groups must share one size; callers with uneven
// (fault-degraded) groups re-route to a flat schedule instead.
func HierarchicalAllReduce(groups [][]int32, volume int64) Schedule {
	const name = "hier-allreduce"
	g := len(groups)
	if g == 0 {
		return Schedule{Name: name}
	}
	m := len(groups[0])
	all := make([]int32, 0, g*m)
	for _, grp := range groups {
		if len(grp) != m {
			return Schedule{Name: name} // uneven groups: caller must re-route
		}
		all = append(all, grp...)
	}
	if g*m < 2 {
		return Schedule{Name: name}
	}
	var steps []Step

	// Intra-group ring: reduce-scatter down to 1/m shards. All groups run
	// their (disjoint) rings inside the same dependent steps.
	intraChunk := (volume + int64(m) - 1) / int64(m)
	intra := traffic.IdentityMap(all)
	for _, grp := range groups {
		for i, c := range grp {
			intra[c] = grp[(i+1)%m]
		}
	}
	if m > 1 {
		for k := 0; k < m-1; k++ {
			steps = append(steps, Step{
				Pattern:      traffic.Permutation{Next: intra},
				Flits:        intraChunk,
				Participants: all,
			})
		}
	}

	// Inter-group ring AllReduce: slot i of every group forms a ring across
	// the groups, reducing its 1/m shard — m disjoint rings of length G in
	// each step.
	if g > 1 {
		interChunk := (volume + int64(m)*int64(g) - 1) / (int64(m) * int64(g))
		inter := traffic.IdentityMap(all)
		for gi, grp := range groups {
			next := groups[(gi+1)%g]
			for i, c := range grp {
				inter[c] = next[i]
			}
		}
		for k := 0; k < 2*(g-1); k++ {
			steps = append(steps, Step{
				Pattern:      traffic.Permutation{Next: inter},
				Flits:        interChunk,
				Participants: all,
			})
		}
	}

	// Intra-group all-gather: the reduced shards circulate back.
	if m > 1 {
		for k := 0; k < m-1; k++ {
			steps = append(steps, Step{
				Pattern:      traffic.Permutation{Next: intra},
				Flits:        intraChunk,
				Participants: all,
			})
		}
	}
	return Schedule{Name: name, Steps: steps}
}

// BidirRingAllReduce halves the step count by sending both directions
// simultaneously (each direction carries half the volume).
func BidirRingAllReduce(order []int32, volume int64) Schedule {
	n := int64(len(order))
	if n < 2 {
		return Schedule{Name: "bidir-ring-allreduce"}
	}
	chunk := (volume/2 + n - 1) / n
	ring := traffic.NewRing(order, true)
	steps := make([]Step, n-1)
	for i := range steps {
		steps[i] = Step{Pattern: ring, Flits: 2 * chunk, Participants: order} // both directions together
	}
	return Schedule{Name: "bidir-ring-allreduce", Steps: steps}
}

// TwoDAllReduce returns the row-column schedule of Fig. 4(b) over a
// rows×cols chip grid (chip = row*cols + col): ring reduce-scatter +
// all-gather along rows, then along columns — 2(cols−1) + 2(rows−1) steps
// instead of 2(rows·cols−1).
func TwoDAllReduce(rows, cols int, volume int64) Schedule {
	order := make([]int32, rows*cols)
	for i := range order {
		order[i] = int32(i)
	}
	return TwoDAllReduceOrder(order, rows, cols, volume)
}

// TwoDAllReduceOrder is TwoDAllReduce over an explicit participant list
// laid out as a logical rows×cols grid (participant index r*cols + c sits
// at grid position (r, c)). A fault-degraded system re-routes by passing
// its alive chips here with a re-factored grid shape.
func TwoDAllReduceOrder(order []int32, rows, cols int, volume int64) Schedule {
	var steps []Step
	n := int64(rows * cols)
	if n < 2 || int(n) != len(order) {
		return Schedule{Name: "2d-allreduce"}
	}
	// Row phase: independent rings inside each row run concurrently; one
	// Step covers all rows because the patterns are disjoint.
	if cols > 1 {
		rowChunk := (volume + int64(cols) - 1) / int64(cols)
		perm := traffic.IdentityMap(order)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				perm[order[r*cols+c]] = order[r*cols+(c+1)%cols]
			}
		}
		for i := 0; i < 2*(cols-1); i++ {
			steps = append(steps, Step{
				Pattern:      traffic.Permutation{Next: perm},
				Flits:        rowChunk,
				Participants: order,
			})
		}
	}
	// Column phase: each chip now holds a row-reduced shard; rings run down
	// the columns.
	if rows > 1 {
		colChunk := (volume + n - 1) / n
		perm := traffic.IdentityMap(order)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				perm[order[r*cols+c]] = order[((r+1)%rows)*cols+c]
			}
		}
		for i := 0; i < 2*(rows-1); i++ {
			steps = append(steps, Step{
				Pattern:      traffic.Permutation{Next: perm},
				Flits:        colChunk,
				Participants: order,
			})
		}
	}
	return Schedule{Name: "2d-allreduce", Steps: steps}
}

// StepCount returns the number of dependent steps.
func (s Schedule) StepCount() int { return len(s.Steps) }

// TotalFlitsPerChip returns the data volume each chip transmits.
func (s Schedule) TotalFlitsPerChip() int64 {
	var total int64
	for _, st := range s.Steps {
		total += st.Flits
	}
	return total
}

// Result is the measured execution of a schedule.
type Result struct {
	Cycles     int64   // total makespan
	StepCycles []int64 // per-step makespan
	Packets    int64   // packets delivered (cycle engines) or owed (flow engine)
}

// RunSteps executes the half-open step range [lo, hi) of the schedule on
// the network's engine: each step's volume (in packetSize-flit packets)
// completes before the next step starts, modelling the data dependency
// between collective steps. A whole schedule is the range
// [0, len(s.Steps)).
//
// The cycle engines inject each step and drain it to its exact completion
// cycle via netsim.RunUntil — the barrier sits where the last packet lands,
// not at the next multiple of some polling batch — so StepCycles and
// Cycles are precise makespans and Packets counts the delivered packets.
// maxCyclesPerStep bounds each such step (0 = 1<<20); it applies to the
// cycle engines only. The flow engine solves each step analytically with
// netsim.FlowMakespan: every participant draws one destination from the
// step's own RNG stream, in participant order, so repeated runs are
// identical, and Packets counts the packets the steps owe.
//
// Per-chip volumes follow the network's surviving injector counts (a chip
// that lost cores splits its volume across fewer nodes, see
// traffic.PacketsPerNode), and only the step's Participants are charged,
// so schedules re-routed around dead chips complete exactly. Counts are
// re-read from the network on every call, which makes RunSteps the churn
// primitive too: run steps [0, k), kill a component, recompute a survivor
// schedule, and run the rest of that.
func RunSteps(net *netsim.Network, s Schedule, packetSize int32, maxCyclesPerStep int64, lo, hi int) (Result, error) {
	if maxCyclesPerStep <= 0 {
		maxCyclesPerStep = 1 << 20
	}
	lo, hi = max(lo, 0), min(hi, len(s.Steps))
	counts := make([]int, net.NumChips())
	for c := range counts {
		counts[c] = len(net.ChipNodes[c])
	}
	flow := net.Engine() == netsim.EngineFlow
	var res Result
	startDelivered := net.Snapshot().DeliveredPkts
	// One volume buffer serves every flow step: FlowMakespan copies what it
	// needs before returning.
	var vols []netsim.FlowVolume
	for i := lo; i < hi; i++ {
		step := s.Steps[i]
		var ran int64
		var err error
		if flow {
			var pkts int64
			vols, pkts = flowVolumes(vols[:0], step, i, counts, packetSize)
			res.Packets += pkts
			ran, err = net.FlowMakespan(vols, packetSize)
		} else {
			vol := traffic.NewVolumePerChip(step.Pattern, step.Flits, packetSize, counts, step.Participants)
			net.SetTraffic(vol, packetSize, netsim.DstSameIndex)
			// InFlight first: it is O(shards), while Done scans the per-node
			// volume table — with the conjunction this way the scan only runs
			// on cycles where the network has actually drained.
			ran, err = net.RunUntil(func(n *netsim.Network) bool {
				return n.InFlight() == 0 && vol.Done()
			}, maxCyclesPerStep)
		}
		if err != nil {
			return res, fmt.Errorf("collective %s step %d: %w", s.Name, i, err)
		}
		res.StepCycles = append(res.StepCycles, ran)
		res.Cycles += ran
	}
	if !flow {
		res.Packets = net.Snapshot().DeliveredPkts - startDelivered
	}
	return res, nil
}

// flowVolumes appends step i's transfers to vols and returns them with the
// step's packet count: each participant with a surviving injector sends
// its chip's whole volume to one destination drawn from the step's RNG
// stream. A nil participant list means every chip, in ID order.
func flowVolumes(vols []netsim.FlowVolume, step Step, i int, counts []int, packetSize int32) ([]netsim.FlowVolume, int64) {
	if step.Flits <= 0 {
		return vols, 0
	}
	rng := engine.NewRNGStream(0x51EBF10A, uint64(i))
	var pkts int64
	send := func(src int32) {
		if int(src) >= len(counts) || counts[src] == 0 {
			return
		}
		dst := step.Pattern.Dest(src, &rng)
		if dst < 0 {
			return
		}
		chipPkts := traffic.PacketsPerNode(step.Flits, counts[src], packetSize) * int64(counts[src])
		pkts += chipPkts
		vols = append(vols, netsim.FlowVolume{Src: src, Dst: dst, Flits: chipPkts * int64(packetSize)})
	}
	if step.Participants == nil {
		for c := range counts {
			send(int32(c))
		}
	}
	for _, src := range step.Participants {
		send(src)
	}
	return vols, pkts
}

// FilterOrder returns order restricted to the chips alive reports true
// for, preserving sequence — the re-routing primitive for running ring
// schedules on fault-degraded networks (the ring simply closes over the
// survivors). A nil alive returns order unchanged.
func FilterOrder(order []int32, alive func(int32) bool) []int32 {
	if alive == nil {
		return order
	}
	out := make([]int32, 0, len(order))
	for _, c := range order {
		if alive(c) {
			out = append(out, c)
		}
	}
	return out
}

// SnakeOrder returns the boustrophedon chip order for a rows×cols grid,
// embedding a ring on physically adjacent chips.
func SnakeOrder(rows, cols int) []int32 {
	order := make([]int32, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cc := c
			if r%2 == 1 {
				cc = cols - 1 - c
			}
			order = append(order, int32(r*cols+cc))
		}
	}
	return order
}
