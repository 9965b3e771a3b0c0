package collective

import (
	"fmt"

	"sldf/internal/engine"
	"sldf/internal/netsim"
)

// Flow-level collective execution (netsim.EngineFlow): each dependent step
// becomes one analytical makespan solve instead of a cycle-stepped drain.
// Per-chip volumes, surviving injector counts and participants follow
// exactly the cycle path's rules (see RunSteps), so schedules re-routed
// around dead chips solve over the same degraded chip tables.

// RunStepsFlow executes the half-open step range [lo, hi) analytically;
// the flow-engine counterpart of RunSteps. Each step's transfers are
// derived from its pattern (one destination draw per participant, from a
// deterministic per-step RNG stream, so repeated runs are identical) and
// solved by netsim.FlowMakespan; chip tables are re-read per call, so a
// post-death range sees the survivors.
func RunStepsFlow(net *netsim.Network, s Schedule, packetSize int32, lo, hi int) (Result, error) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Steps) {
		hi = len(s.Steps)
	}
	counts := make([]int, net.NumChips())
	for c := range counts {
		counts[c] = len(net.ChipNodes[c])
	}
	var res Result
	// One volume buffer serves every step: FlowMakespan copies what it needs
	// before returning, so reuse keeps a long schedule allocation-free.
	vols := make([]netsim.FlowVolume, 0, len(counts))
	var allChips []int32
	for i := lo; i < hi; i++ {
		step := s.Steps[i]
		participants := step.Participants
		if participants == nil {
			if allChips == nil {
				allChips = make([]int32, 0, len(counts))
				for c := range counts {
					if counts[c] > 0 {
						allChips = append(allChips, int32(c))
					}
				}
			}
			participants = allChips
		}
		rng := engine.NewRNGStream(0x51EBF10A, uint64(i))
		vols = vols[:0]
		var pkts int64
		for _, src := range participants {
			if int(src) >= len(counts) || counts[src] == 0 || step.Flits <= 0 {
				continue
			}
			dst := step.Pattern.Dest(src, &rng)
			if dst < 0 {
				continue
			}
			// Mirror traffic.NewVolumePerChip: every surviving node of the
			// chip sends ceil(Flits / (nodes*packetSize)) packets.
			denom := int64(counts[src]) * int64(packetSize)
			perNode := (step.Flits + denom - 1) / denom
			pkts += perNode * int64(counts[src])
			vols = append(vols, netsim.FlowVolume{
				Src: src, Dst: dst,
				Flits: perNode * int64(packetSize) * int64(counts[src]),
			})
		}
		ran, err := net.FlowMakespan(vols, packetSize)
		if err != nil {
			return res, fmt.Errorf("collective %s step %d: %w", s.Name, i, err)
		}
		res.StepCycles = append(res.StepCycles, ran)
		res.Cycles += ran
		res.Packets += pkts
	}
	return res, nil
}
