// Package energy implements the paper's transmission-energy model
// (Sec. V-C, Fig. 15): each delivered packet's energy is the sum of its
// per-class hop counts priced with the Table II constants. The paper also
// uses a simplified "1 pJ/bit average intra-C-group hop"; both pricings are
// provided.
package energy

import "sldf/internal/netsim"

// Model prices one traversed channel per class in pJ/bit.
type Model struct {
	OnChip float64
	SR     float64
	Local  float64
	Global float64
}

// TableII is the paper's per-class pricing: on-chip 0.1, short-reach 2,
// long-reach cable/optical 20 pJ/bit.
func TableII() Model {
	return Model{OnChip: 0.1, SR: 2, Local: 20, Global: 20}
}

// Simplified is the Fig. 15 pricing where every intra-C-group hop (on-chip
// or short-reach) averages 1 pJ/bit.
func Simplified() Model {
	return Model{OnChip: 1, SR: 1, Local: 20, Global: 20}
}

// Breakdown is the Fig. 15 bar decomposition: the average pJ/bit spent
// inside C-groups (NoC + short-reach + conversion hops) and between
// C-groups (long-reach local + global cables), per delivered packet.
type Breakdown struct {
	IntraCGroup float64 // pJ/bit
	InterCGroup float64 // pJ/bit
}

// Total returns the total average energy per transmitted bit.
func (b Breakdown) Total() float64 { return b.IntraCGroup + b.InterCGroup }

// FromStats prices a simulation's mean per-packet hop counts.
func FromStats(st netsim.Stats, m Model) Breakdown {
	return Breakdown{
		IntraCGroup: st.MeanHops(netsim.HopOnChip)*m.OnChip +
			st.MeanHops(netsim.HopShortReach)*m.SR,
		InterCGroup: st.MeanHops(netsim.HopLongLocal)*m.Local +
			st.MeanHops(netsim.HopGlobal)*m.Global,
	}
}

// FromHops prices explicit mean hop counts (used by analytical estimates).
func FromHops(onChip, sr, local, global float64, m Model) Breakdown {
	return Breakdown{
		IntraCGroup: onChip*m.OnChip + sr*m.SR,
		InterCGroup: local*m.Local + global*m.Global,
	}
}
