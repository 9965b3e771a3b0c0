package core

import (
	"fmt"

	"sldf/internal/engine"
	"sldf/internal/netsim"
	"sldf/internal/traffic"
)

// Flow-engine measurement path: MeasureLoad dispatches here when
// SimParams.Engine is netsim.EngineFlow. The traffic pattern is discretized
// into a sampled chip-to-chip demand matrix (deterministic per-chip RNG
// streams, so cached points reproduce exactly) and handed to the network's
// analytical solver; the Result surface is identical to the cycle path's.

// flowDemands samples the traffic matrix: every chip that still has a
// terminal draws FlowSampleCount destinations, each carrying an equal share
// of the chip's offered rate. The pattern is re-wrapped against the current
// alive set on every call, so churn segments re-filter dead chips.
func (s *System) flowDemands(pat traffic.Pattern, rate float64) []netsim.FlowDemand {
	fpat := traffic.FilterDead(pat, s.Net.AliveChips())
	samples := netsim.FlowSampleCount(s.Chips)
	per := rate / float64(samples)
	// The demand buffer is retained on the System so steady-state sweep
	// points (and churn re-segments) allocate nothing here.
	if cap(s.flowDemandBuf) < s.Chips*samples {
		s.flowDemandBuf = make([]netsim.FlowDemand, 0, s.Chips*samples)
	}
	demands := s.flowDemandBuf[:0]
	// One RNG variable reused across chips: &rng escapes through the
	// Pattern interface, so a loop-local would heap-allocate per chip.
	var rng engine.RNG
	for c := int32(0); int(c) < s.Chips; c++ {
		if len(s.Net.ChipNodes[c]) == 0 {
			continue
		}
		rng = netsim.FlowDemandRNG(s.Cfg.Seed, c)
		for i := 0; i < samples; i++ {
			dst := fpat.Dest(c, &rng)
			if dst < 0 {
				continue
			}
			demands = append(demands, netsim.FlowDemand{Src: c, Dst: dst, Rate: per})
		}
	}
	s.flowDemandBuf = demands
	return demands
}

// measureLoadFlow is the EngineFlow counterpart of MeasureLoad's
// run/measure/drain sequence: one analytical solve (segmented across any
// armed churn timeline), then the same Snapshot/utilization/energy surface.
func (s *System) measureLoadFlow(pat traffic.Pattern, rate float64, sp SimParams) (Result, error) {
	err := s.Net.SolveFlow(netsim.FlowOptions{
		Demands:    func() []netsim.FlowDemand { return s.flowDemands(pat, rate) },
		PacketSize: sp.PacketSize,
		Warmup:     sp.Warmup,
		Measure:    sp.Measure,
		Workers:    sp.FlowWorkers,
		Cold:       sp.FlowCold,
	})
	if err != nil {
		return Result{}, fmt.Errorf("%s flow solve: %w", s.Label, err)
	}
	return s.result(rate), nil
}
