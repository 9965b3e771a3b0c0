package routing

import (
	"sldf/internal/engine"
	"sldf/internal/netsim"
)

// ugalThreshold biases the decision toward the minimal path (in flits), the
// standard UGAL hysteresis that prevents needless misrouting at low load.
const ugalThreshold = 8

// channelOccupancy holds a per-cycle snapshot of every global channel's
// output occupancy: occ[w][G] = flits queued (credits consumed) at the
// external output of global channel G of W-group w. It is refreshed by the
// network's pre-allocate hook, which runs single-threaded between the
// simulation phases, so route functions may read it without races.
type channelOccupancy struct {
	occ [][]int32
}

func newChannelOccupancy(groups, channels int) *channelOccupancy {
	o := &channelOccupancy{occ: make([][]int32, groups)}
	for w := range o.occ {
		o.occ[w] = make([]int32, channels)
	}
	return o
}

// Install registers the router on the network: the routing function plus,
// for Adaptive mode, the occupancy-snapshot hook.
func (sr *SLDFRouter) Install(net *netsim.Network) {
	net.SetRoute(sr.Func())
	if sr.mode != Adaptive {
		return
	}
	h := sr.s.Params.H
	channels := sr.s.Params.AB * h
	sr.occ = newChannelOccupancy(sr.groups, channels)
	net.SetPreAllocate(func(n *netsim.Network) {
		for w := 0; w < sr.groups; w++ {
			for c := 0; c < sr.s.Params.AB; c++ {
				for j := 0; j < h; j++ {
					pi := &sr.s.CGroups[w][c].GlobalPorts[j]
					l := n.OutPorts(n.Router(pi.Node))[pi.PortExt].Link
					if l < 0 {
						continue
					}
					spec := n.LinkSpec(l)
					// Occupancy = credits consumed across all VCs.
					var used int32
					for vc := uint8(0); vc < spec.VCs; vc++ {
						used += spec.BufFlits - n.FreeCredits(pi.Node, pi.PortExt, vc)
					}
					sr.occ.occ[w][c*h+j] = used
				}
			}
		}
	})
}

// chooseAdaptive implements the UGAL-G decision at the source core for an
// inter-W-group packet: pick one random intermediate candidate and compare
// queue×hops against the minimal path.
func (sr *SLDFRouter) chooseAdaptive(rng *engine.RNG, ws, wd int32) int32 {
	if sr.occ == nil || sr.groups <= 2 {
		return -1
	}
	// Candidate intermediate.
	var aux int32
	for {
		aux = int32(rng.Intn(sr.groups))
		if aux != ws && aux != wd {
			break
		}
	}
	h := sr.s.Params.H
	// Minimal path: the direct channel ws→wd.
	cMin, jMin := sr.s.GlobalChannelOwner(int(ws), int(wd))
	qMin := sr.occ.occ[ws][cMin*h+jMin]
	// Non-minimal: ws→aux, then aux→wd.
	c1, j1 := sr.s.GlobalChannelOwner(int(ws), int(aux))
	c2, j2 := sr.s.GlobalChannelOwner(int(aux), int(wd))
	qVal := sr.occ.occ[ws][c1*h+j1] + sr.occ.occ[aux][c2*h+j2]
	// Misroute only when the summed non-minimal occupancy is clearly below
	// the direct channel's (UGAL with hysteresis).
	if int64(qMin) <= int64(qVal)+ugalThreshold {
		return -1 // minimal
	}
	return aux
}
